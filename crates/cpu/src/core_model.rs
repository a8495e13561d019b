//! The interval-style out-of-order core.

use crate::config::CoreConfig;
use crate::port::MemoryPort;
use hipe_isa::{MicroOp, MicroOpKind};
use hipe_sim::{Cycle, FifoWindow, MultiServer, Window};

/// Execution counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Micro-ops executed.
    pub ops: u64,
    /// Loads (including HMC dispatches and logic waits).
    pub loads: u64,
    /// Stores (including posted logic dispatches).
    pub stores: u64,
    /// Branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
}

/// The out-of-order core model.
///
/// Feed it the dynamic micro-op stream in program order via
/// [`execute`](Self::execute); it returns each op's completion cycle
/// and tracks the overall critical path, available from
/// [`finish`](Self::finish).
///
/// See the crate docs for what the interval model does and does not
/// capture.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    rob: FifoWindow,
    mob_r: Window,
    mob_w: Window,
    int_alu: MultiServer,
    int_mul: MultiServer,
    int_div: MultiServer,
    fp_alu: MultiServer,
    fp_mul: MultiServer,
    fp_div: MultiServer,
    load_agu: MultiServer,
    store_agu: MultiServer,
    /// Earliest cycle the front end can deliver the next micro-op
    /// (advanced by mispredict refills).
    front_end: Cycle,
    /// Cycle currently being filled with issue slots.
    issue_cycle: Cycle,
    /// Slots already used in `issue_cycle`.
    issued_this_cycle: usize,
    /// Completion cycles of the most recent ops (dependency window): a
    /// power-of-two ring indexed by `tail & mask`, of which the last
    /// `live` entries (at most `rob_entries`) are visible.
    ring: Box<[Cycle]>,
    /// The slot the next op's completion goes to.
    tail: usize,
    /// Recent completions a dependency distance may reach.
    live: usize,
    /// Maximum completion cycle observed.
    horizon: Cycle,
    stats: CoreStats,
}

impl Core {
    /// Creates an idle core.
    pub fn new(cfg: CoreConfig) -> Self {
        Core {
            rob: FifoWindow::new(cfg.rob_entries),
            mob_r: Window::new(cfg.mob_read),
            mob_w: Window::new(cfg.mob_write),
            int_alu: MultiServer::new(cfg.int_alu_units),
            int_mul: MultiServer::new(cfg.int_mul_units),
            int_div: MultiServer::new(cfg.int_div_units),
            fp_alu: MultiServer::new(cfg.fp_alu_units),
            fp_mul: MultiServer::new(cfg.fp_mul_units),
            fp_div: MultiServer::new(cfg.fp_div_units),
            load_agu: MultiServer::new(cfg.load_units),
            store_agu: MultiServer::new(cfg.store_units),
            front_end: 0,
            issue_cycle: 0,
            issued_this_cycle: 0,
            ring: vec![0; cfg.rob_entries.next_power_of_two()].into_boxed_slice(),
            tail: 0,
            live: 0,
            horizon: 0,
            stats: CoreStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Claims one issue slot; returns its cycle.
    fn take_slot(&mut self) -> Cycle {
        if self.front_end > self.issue_cycle {
            self.issue_cycle = self.front_end;
            self.issued_this_cycle = 0;
        }
        if self.issued_this_cycle >= self.cfg.issue_width {
            self.issue_cycle += 1;
            self.issued_this_cycle = 0;
        }
        self.issued_this_cycle += 1;
        self.issue_cycle
    }

    /// Resolves a dependency distance to a ready cycle.
    #[inline]
    fn dep_ready(&self, dist: u32) -> Cycle {
        let d = dist as usize;
        if d == 0 || d > self.live {
            // No producer, or it retired long ago: the value is in the
            // register file.
            return 0;
        }
        self.ring[self.tail.wrapping_sub(d) & (self.ring.len() - 1)]
    }

    /// Executes one micro-op; returns its completion cycle.
    ///
    /// Micro-ops must be supplied in program order. Memory kinds are
    /// routed to `port`.
    pub fn execute<P: MemoryPort>(&mut self, op: MicroOp, port: &mut P) -> Cycle {
        self.stats.ops += 1;
        let slot = self.take_slot();
        let dispatch = self.rob.admit(slot);
        let ready = dispatch
            .max(self.dep_ready(op.dep1))
            .max(self.dep_ready(op.dep2));

        let end = match op.kind {
            MicroOpKind::IntAlu => self.int_alu.serve(ready, self.cfg.int_alu_latency).1,
            MicroOpKind::IntMul => self.int_mul.serve(ready, self.cfg.int_mul_latency).1,
            MicroOpKind::IntDiv => self.int_div.serve(ready, self.cfg.int_div_latency).1,
            MicroOpKind::FpAlu => self.fp_alu.serve(ready, self.cfg.fp_alu_latency).1,
            MicroOpKind::FpMul => self.fp_mul.serve(ready, self.cfg.fp_mul_latency).1,
            MicroOpKind::FpDiv => self.fp_div.serve(ready, self.cfg.fp_div_latency).1,
            MicroOpKind::VecAlu { size } => {
                // Wide vector ops occupy an ALU pipe for one cycle per
                // `vector_bytes_per_cycle` chunk.
                let cycles = size.bytes().div_ceil(self.cfg.vector_bytes_per_cycle);
                self.int_alu
                    .serve(ready, cycles.max(self.cfg.int_alu_latency))
                    .1
            }
            MicroOpKind::Load { addr, bytes } => {
                self.stats.loads += 1;
                let agu = self.load_agu.serve(ready, 1).1;
                let adm = self.mob_r.admit(agu);
                let done = port.read(adm, addr, bytes);
                self.mob_r.complete(done);
                done
            }
            MicroOpKind::Store { addr, bytes } => {
                self.stats.stores += 1;
                let agu = self.store_agu.serve(ready, 1).1;
                let adm = self.mob_w.admit(agu);
                let sent = port.write(adm, addr, bytes);
                self.mob_w.complete(sent);
                sent
            }
            MicroOpKind::Branch { mispredict } => {
                self.stats.branches += 1;
                let end = self.int_alu.serve(ready, self.cfg.int_alu_latency).1;
                if mispredict {
                    self.stats.mispredicts += 1;
                    self.front_end = self.front_end.max(end + self.cfg.mispredict_penalty);
                }
                end
            }
            MicroOpKind::HmcDispatch {
                addr,
                size,
                result_bytes,
                ..
            } => {
                self.stats.loads += 1;
                let agu = self.load_agu.serve(ready, 1).1;
                let adm = self.mob_r.admit(agu);
                let done = port.hmc_dispatch(adm, addr, size, result_bytes);
                self.mob_r.complete(done);
                done
            }
            MicroOpKind::LogicDispatch => {
                self.stats.stores += 1;
                let agu = self.store_agu.serve(ready, 1).1;
                let adm = self.mob_w.admit(agu);
                let sent = port.logic_dispatch(adm);
                self.mob_w.complete(sent);
                sent
            }
            MicroOpKind::LogicWait => {
                self.stats.loads += 1;
                let agu = self.load_agu.serve(ready, 1).1;
                let adm = self.mob_r.admit(agu);
                let done = port.logic_wait(adm);
                self.mob_r.complete(done);
                done
            }
        };

        self.rob.complete(end);
        self.ring[self.tail] = end;
        self.tail = (self.tail + 1) & (self.ring.len() - 1);
        self.live = (self.live + 1).min(self.cfg.rob_entries);
        self.horizon = self.horizon.max(end);
        end
    }

    /// Completion cycle of the whole stream executed so far.
    pub fn finish(&self) -> Cycle {
        self.horizon
    }

    /// Execution counters.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::FlatMemory;
    use hipe_isa::OpSize;

    fn alu() -> MicroOp {
        MicroOp::new(MicroOpKind::IntAlu)
    }

    #[test]
    fn issue_width_limits_throughput() {
        let mut core = Core::new(CoreConfig::paper());
        let mut mem = FlatMemory::new(10);
        // 60 independent 1-cycle ALU ops, but only 3 ALU units: the ALU
        // pool (3/cycle), not the 6-wide issue, is the binding limit.
        let mut last = 0;
        for _ in 0..60 {
            last = core.execute(alu(), &mut mem);
        }
        assert!((60 / 3..=60 / 3 + 3).contains(&last), "last {last}");
    }

    #[test]
    fn dependency_chains_serialize() {
        let mut core = Core::new(CoreConfig::paper());
        let mut mem = FlatMemory::new(10);
        let mut last = 0;
        for _ in 0..50 {
            last = core.execute(alu().with_deps(1, 0), &mut mem);
        }
        // A chain of 50 dependent 1-cycle ops takes ~50 cycles.
        assert!(last >= 50, "chain took {last}");
    }

    #[test]
    fn mob_bounds_memory_level_parallelism() {
        let cfg = CoreConfig::paper();
        let mut core = Core::new(cfg);
        let mut mem = FlatMemory::new(400);
        let n = 640u64;
        let mut last = 0;
        for i in 0..n {
            last = core.execute(
                MicroOp::new(MicroOpKind::Load {
                    addr: i * 64,
                    bytes: 8,
                }),
                &mut mem,
            );
        }
        // 640 loads, 64 MOB entries, 400-cycle memory: >= 10 rounds.
        assert!(last >= 4000, "mlp unbounded: {last}");
        // And well below full serialization (640 * 400).
        assert!(last < 40_000, "no mlp at all: {last}");
    }

    #[test]
    fn rob_bounds_run_ahead() {
        let mut core = Core::new(CoreConfig::paper());
        let mut mem = FlatMemory::new(10_000);
        // One very long load followed by many independent ALU ops: the
        // ROB admits only 167 more ops until the load completes.
        core.execute(
            MicroOp::new(MicroOpKind::Load { addr: 0, bytes: 8 }),
            &mut mem,
        );
        let mut early = 0u64;
        for _ in 0..500 {
            let done = core.execute(alu(), &mut mem);
            if done < 10_000 {
                early += 1;
            }
        }
        assert!(early <= 168, "rob did not bound run-ahead: {early}");
    }

    #[test]
    fn mispredict_stalls_front_end() {
        let mut predicted = Core::new(CoreConfig::paper());
        let mut mispred = Core::new(CoreConfig::paper());
        let mut mem = FlatMemory::new(10);
        for _ in 0..20 {
            predicted.execute(
                MicroOp::new(MicroOpKind::Branch { mispredict: false }),
                &mut mem,
            );
            mispred.execute(
                MicroOp::new(MicroOpKind::Branch { mispredict: true }),
                &mut mem,
            );
        }
        assert!(mispred.finish() > predicted.finish() + 15 * 20 / 2);
        assert_eq!(mispred.stats().mispredicts, 20);
    }

    #[test]
    fn vector_ops_occupy_pipes_by_width() {
        let mut core = Core::new(CoreConfig::paper());
        let mut mem = FlatMemory::new(10);
        // 256 B vector op = 4 pipe-cycles on a 64 B/cycle pipe.
        let one = core.execute(
            MicroOp::new(MicroOpKind::VecAlu { size: OpSize::MAX }),
            &mut mem,
        );
        assert_eq!(one, 4);
    }

    #[test]
    fn stores_are_posted() {
        let mut core = Core::new(CoreConfig::paper());
        let mut mem = FlatMemory::new(400);
        let done = core.execute(
            MicroOp::new(MicroOpKind::Store { addr: 0, bytes: 8 }),
            &mut mem,
        );
        // FlatMemory::write returns cycle+1: the store does not wait
        // 400 cycles.
        assert!(done < 10);
    }

    #[test]
    fn stats_classify_ops() {
        let mut core = Core::new(CoreConfig::paper());
        let mut mem = FlatMemory::new(1);
        core.execute(alu(), &mut mem);
        core.execute(
            MicroOp::new(MicroOpKind::Load { addr: 0, bytes: 8 }),
            &mut mem,
        );
        core.execute(MicroOp::new(MicroOpKind::LogicDispatch), &mut mem);
        core.execute(MicroOp::new(MicroOpKind::LogicWait), &mut mem);
        let s = core.stats();
        assert_eq!(s.ops, 4);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
    }
}
