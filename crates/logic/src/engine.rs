//! The in-order logic-layer engine with interlock and predication.

use crate::bank::{RegisterBank, LANES};
use crate::config::LogicConfig;
use hipe_hmc::Hmc;
use hipe_isa::{AluOp, LogicInstr, OpSize, PredWhen, Predicate, RegId};
use hipe_sim::Cycle;
use std::cell::Cell;

/// Activity counters of the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instructions received (including squashed ones).
    pub instructions: u64,
    /// Loads that accessed DRAM.
    pub dram_loads: u64,
    /// Stores that accessed DRAM.
    pub dram_stores: u64,
    /// ALU operations executed.
    pub alu_ops: u64,
    /// Instructions squashed by the predication match logic.
    pub squashed: u64,
    /// Lock/unlock blocks completed.
    pub blocks: u64,
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, other: EngineStats) {
        self.instructions += other.instructions;
        self.dram_loads += other.dram_loads;
        self.dram_stores += other.dram_stores;
        self.alu_ops += other.alu_ops;
        self.squashed += other.squashed;
        self.blocks += other.blocks;
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> EngineStats {
        iter.fold(EngineStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Cycle at which the instruction's effect is complete: data in the
    /// register (load), data in DRAM (store), result ready (ALU), or
    /// acknowledgement sent (unlock).
    pub done: Cycle,
    /// `false` when the predication match logic squashed the
    /// instruction.
    pub performed: bool,
}

/// The HIVE/HIPE logic-layer engine.
///
/// See the crate documentation for the modelled micro-architecture.
/// Instructions are supplied in program order with the cycle at which
/// each arrives from the host ([`execute`](Self::execute)); the engine
/// handles sequencing, interlock and predication internally.
#[derive(Debug)]
pub struct Engine {
    cfg: LogicConfig,
    bank: RegisterBank,
    /// CPU cycles per sequencer slot ([`LogicConfig::issue_interval`]).
    issue_interval: Cycle,
    /// Next free sequencer slot (CPU cycles).
    seq: Cycle,
    /// Completion horizon of the current lock/unlock block.
    block_horizon: Cycle,
    stats: EngineStats,
}

impl Engine {
    /// Creates an idle engine.
    pub fn new(cfg: LogicConfig) -> Self {
        Engine {
            bank: RegisterBank::new(cfg.registers),
            issue_interval: cfg.issue_interval(),
            seq: 0,
            block_horizon: 0,
            stats: EngineStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LogicConfig {
        &self.cfg
    }

    /// The register bank (functional inspection).
    pub fn bank(&self) -> &RegisterBank {
        &self.bank
    }

    /// Activity counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Evaluates a predicate against the current zero flags.
    fn predicate_passes(&self, p: Predicate) -> bool {
        match p.when {
            PredWhen::AnyNonZero => !self.bank.is_zero(p.reg),
            PredWhen::AllZero => self.bank.is_zero(p.reg),
        }
    }

    /// Executes one instruction arriving from the host at `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction carries a predicate but the engine is
    /// configured without predication (a HIVE engine receiving HIPE
    /// code is a compiler bug), or if a register id is outside the
    /// configured bank.
    pub fn execute(&mut self, hmc: &mut Hmc, instr: LogicInstr, arrival: Cycle) -> Outcome {
        self.stats.instructions += 1;
        // One sequencer slot per instruction, in order.
        let issue = self.seq.max(arrival);
        self.seq = issue + self.issue_interval;

        // Predication match logic.
        if let Some(p) = instr.predicate() {
            assert!(
                self.cfg.predication,
                "predicated instruction on a non-predicated (HIVE) engine"
            );
            // The predicate register must be ready before the decision.
            // Like any operand wait, the decision happens at the
            // interlocked bank and does not block the sequencer from
            // issuing younger instructions.
            let decide = issue.max(self.bank.ready(p.reg));
            if !self.predicate_passes(p) {
                self.stats.squashed += 1;
                self.block_horizon = self.block_horizon.max(decide);
                return Outcome {
                    done: decide,
                    performed: false,
                };
            }
            return self.perform(hmc, instr, decide);
        }
        self.perform(hmc, instr, issue)
    }

    fn perform(&mut self, hmc: &mut Hmc, instr: LogicInstr, issue: Cycle) -> Outcome {
        let done = match instr {
            LogicInstr::Lock => {
                self.block_horizon = issue;
                issue
            }
            LogicInstr::Unlock => {
                self.stats.blocks += 1;
                issue.max(self.block_horizon)
            }
            LogicInstr::Load {
                dst, addr, size, ..
            } => {
                self.stats.dram_loads += 1;
                // WAR interlock: the destination register must have been
                // consumed by all earlier readers before it is refilled.
                let start = issue.max(self.bank.last_consumed(dst));
                let data_ready = hmc.internal_read(start, addr, size.bytes());
                let words = hmc.read_words(addr, size.lanes());
                self.bank.rewrite(dst, data_ready, |regs, d| {
                    // Unused high lanes are zeroed.
                    let (low, high) = regs[d].split_at_mut(words.len());
                    words.widen_into(low);
                    high.fill(0);
                });
                data_ready
            }
            LogicInstr::Store {
                src, addr, size, ..
            } => {
                self.stats.dram_stores += 1;
                let start = issue.max(self.bank.ready(src));
                self.bank.consume(src, start);
                write_lanes(hmc, addr, size, self.bank.lanes(src));
                hmc.internal_write(start, addr, size.bytes())
            }
            LogicInstr::Alu {
                op,
                dst,
                a,
                b,
                size,
                ..
            } => {
                self.stats.alu_ops += 1;
                hmc.charge_logic_op();
                let mut start = issue.max(self.bank.ready(a));
                if let Some(rb) = b {
                    start = start.max(self.bank.ready(rb));
                }
                start = start.max(self.bank.last_consumed(dst));
                if op.merges_dst() {
                    // Read-modify-write: the previous destination lanes
                    // are a true source operand.
                    start = start.max(self.bank.ready(dst));
                    self.bank.consume(dst, start);
                }
                self.bank.consume(a, start);
                if let Some(rb) = b {
                    self.bank.consume(rb, start);
                }
                let latency = if op.is_mul_class() {
                    self.cfg.int_mul_latency
                } else {
                    self.cfg.int_alu_latency
                };
                let end = start + latency;
                let (a, b) = (a.index(), b.map(RegId::index));
                self.bank.rewrite(dst, end, |regs, d| {
                    eval_alu(op, regs, a, b, d, size.lanes())
                });
                end
            }
        };
        self.block_horizon = self.block_horizon.max(done);
        Outcome {
            done,
            performed: true,
        }
    }
}

/// Writes the low `size` bytes of `lanes` to the cube image, straight
/// into the borrowed image words — the store path allocates nothing.
fn write_lanes(hmc: &mut Hmc, addr: u64, size: OpSize, lanes: &[i64; LANES]) {
    let n = size.lanes();
    hmc.words_mut(addr, n).copy_from_slice(&lanes[..n]);
}

/// Lane-wise functional evaluation over the low `n` lanes, in place:
/// `regs[dst]` receives the result of `op` on registers `a` and `b`.
/// Every operand is read before its lane is written, so any of them
/// may be `dst` itself.
fn eval_alu(
    op: AluOp,
    regs: &mut [[i64; LANES]],
    a: usize,
    b: Option<usize>,
    dst: usize,
    n: usize,
) {
    let b2 = || b.expect("two-operand ALU op requires a second register");
    match op {
        AluOp::CmpGeImm(x) => lanewise(regs, dst, n, a, a, |v, _| (v >= x) as i64),
        AluOp::CmpGtImm(x) => lanewise(regs, dst, n, a, a, |v, _| (v > x) as i64),
        AluOp::CmpLeImm(x) => lanewise(regs, dst, n, a, a, |v, _| (v <= x) as i64),
        AluOp::CmpLtImm(x) => lanewise(regs, dst, n, a, a, |v, _| (v < x) as i64),
        AluOp::CmpEqImm(x) => lanewise(regs, dst, n, a, a, |v, _| (v == x) as i64),
        AluOp::CmpRangeImm(lo, hi) => {
            lanewise(regs, dst, n, a, a, |v, _| (lo <= v && v <= hi) as i64)
        }
        AluOp::And => lanewise(regs, dst, n, a, b2(), |x, y| x & y),
        AluOp::Or => lanewise(regs, dst, n, a, b2(), |x, y| x | y),
        AluOp::Add => lanewise(regs, dst, n, a, b2(), i64::wrapping_add),
        AluOp::Sub => lanewise(regs, dst, n, a, b2(), i64::wrapping_sub),
        AluOp::Mul => lanewise(regs, dst, n, a, b2(), i64::wrapping_mul),
        AluOp::AddReduce { lane } => {
            assert!((lane as usize) < LANES, "reduce lane out of range");
            let sum = match b {
                // Dot-product form: reduce the lane-wise products
                // (the aggregate tail passes the 0/1 match mask here).
                Some(b) => (0..n).fold(0i64, |acc, i| {
                    acc.wrapping_add(regs[a][i].wrapping_mul(regs[b][i]))
                }),
                None => regs[a][..n]
                    .iter()
                    .fold(0i64, |acc, &v| acc.wrapping_add(v)),
            };
            // Merge: untouched lanes keep the destination's value.
            regs[dst][lane as usize] = sum;
        }
    }
}

/// `regs[dst][i] = f(regs[a][i], regs[b][i])` for the low `n` lanes;
/// the lanes above them are zeroed. The registers may alias, so the
/// lanes are read and written through cells.
fn lanewise(
    regs: &mut [[i64; LANES]],
    dst: usize,
    n: usize,
    a: usize,
    b: usize,
    f: impl Fn(i64, i64) -> i64,
) {
    let regs = Cell::from_mut(regs).as_slice_of_cells();
    let lanes = |r: usize| Cell::as_array_of_cells(&regs[r]);
    let (out, x, y) = (lanes(dst), lanes(a), lanes(b));
    for ((o, x), y) in out[..n].iter().zip(&x[..n]).zip(&y[..n]) {
        o.set(f(x.get(), y.get()));
    }
    out[n..].iter().for_each(|o| o.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipe_hmc::HmcConfig;
    use hipe_isa::RegId;

    const SIZE: OpSize = OpSize::MAX;

    fn setup(pred: bool) -> (Hmc, Engine) {
        let cfg = if pred {
            LogicConfig::paper_hipe()
        } else {
            LogicConfig::paper()
        };
        (Hmc::new(HmcConfig::paper(), 1 << 20), Engine::new(cfg))
    }

    fn r(i: usize) -> RegId {
        RegId::new(i).expect("valid register")
    }

    fn load(dst: usize, addr: u64) -> LogicInstr {
        LogicInstr::Load {
            dst: r(dst),
            addr,
            size: SIZE,
            pred: None,
        }
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = EngineStats {
            instructions: 10,
            dram_loads: 3,
            dram_stores: 2,
            alu_ops: 4,
            squashed: 1,
            blocks: 1,
        };
        let b = EngineStats {
            instructions: 5,
            dram_loads: 1,
            dram_stores: 1,
            alu_ops: 2,
            squashed: 0,
            blocks: 1,
        };
        let mut merged = a;
        merged += b;
        assert_eq!(
            merged,
            EngineStats {
                instructions: 15,
                dram_loads: 4,
                dram_stores: 3,
                alu_ops: 6,
                squashed: 1,
                blocks: 2,
            }
        );
        assert_eq!([a, b].into_iter().sum::<EngineStats>(), merged);
        assert_eq!(
            [a, EngineStats::default()].into_iter().sum::<EngineStats>(),
            a
        );
    }

    #[test]
    fn interlock_overlaps_independent_loads() {
        let (mut hmc, mut eng) = setup(false);
        // Two loads to different vaults issued back to back: the second
        // completes ~one sequencer slot after the first, not a full
        // DRAM latency later.
        let a = eng.execute(&mut hmc, load(0, 0), 0);
        let b = eng.execute(&mut hmc, load(1, 256), 0);
        assert!(b.done < a.done + 50, "loads serialized: {a:?} {b:?}");
    }

    #[test]
    fn true_dependency_stalls() {
        let (mut hmc, mut eng) = setup(false);
        hmc.write_word(0, 7);
        let ld = eng.execute(&mut hmc, load(0, 0), 0);
        let cmp = eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::CmpGeImm(5),
                dst: r(1),
                a: r(0),
                b: None,
                size: SIZE,
                pred: None,
            },
            0,
        );
        // The compare waits for the load's data.
        assert!(cmp.done >= ld.done + 2);
        assert_eq!(eng.bank().lane(r(1), 0), 1);
    }

    #[test]
    fn functional_compare_and_mask() {
        let (mut hmc, mut eng) = setup(false);
        for i in 0..32u64 {
            hmc.write_word(i * 8, i as i64);
        }
        eng.execute(&mut hmc, load(0, 0), 0);
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::CmpLtImm(10),
                dst: r(1),
                a: r(0),
                b: None,
                size: SIZE,
                pred: None,
            },
            0,
        );
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::CmpGeImm(5),
                dst: r(2),
                a: r(0),
                b: None,
                size: SIZE,
                pred: None,
            },
            0,
        );
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::And,
                dst: r(3),
                a: r(1),
                b: Some(r(2)),
                size: SIZE,
                pred: None,
            },
            0,
        );
        for lane in 0..32 {
            let expect = (5..10).contains(&lane) as i64;
            assert_eq!(eng.bank().lane(r(3), lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn store_round_trips_through_dram_image() {
        let (mut hmc, mut eng) = setup(false);
        for i in 0..32u64 {
            hmc.write_word(i * 8, (100 + i) as i64);
        }
        eng.execute(&mut hmc, load(0, 0), 0);
        let st = eng.execute(
            &mut hmc,
            LogicInstr::Store {
                src: r(0),
                addr: 4096,
                size: SIZE,
                pred: None,
            },
            0,
        );
        assert!(st.performed);
        for i in 0..32u64 {
            assert_eq!(hmc.read_word(4096 + i * 8), (100 + i) as i64);
        }
        assert_eq!(eng.stats().dram_stores, 1);
    }

    #[test]
    fn predication_squashes_on_zero_flag() {
        let (mut hmc, mut eng) = setup(true);
        // Region data that fails a compare -> zero mask.
        for i in 0..32u64 {
            hmc.write_word(i * 8, (1000 + i) as i64);
        }
        eng.execute(&mut hmc, load(0, 0), 0);
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::CmpLtImm(0),
                dst: r(1),
                a: r(0),
                b: None,
                size: SIZE,
                pred: None,
            },
            0,
        );
        let before = eng.stats().dram_loads;
        let skipped = eng.execute(
            &mut hmc,
            LogicInstr::Load {
                dst: r(2),
                addr: 8192,
                size: SIZE,
                pred: Some(Predicate::any_nonzero(r(1))),
            },
            0,
        );
        assert!(!skipped.performed);
        assert_eq!(eng.stats().dram_loads, before, "squashed load hit DRAM");
        assert_eq!(eng.stats().squashed, 1);
    }

    #[test]
    fn predication_executes_on_match() {
        let (mut hmc, mut eng) = setup(true);
        hmc.write_word(0, 3); // lane 0 nonzero after compare
        eng.execute(&mut hmc, load(0, 0), 0);
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::CmpGeImm(1),
                dst: r(1),
                a: r(0),
                b: None,
                size: SIZE,
                pred: None,
            },
            0,
        );
        let out = eng.execute(
            &mut hmc,
            LogicInstr::Load {
                dst: r(2),
                addr: 8192,
                size: SIZE,
                pred: Some(Predicate::any_nonzero(r(1))),
            },
            0,
        );
        assert!(out.performed);
        assert_eq!(eng.stats().squashed, 0);
    }

    #[test]
    fn predicated_instruction_waits_for_flag() {
        let (mut hmc, mut eng) = setup(true);
        hmc.write_word(0, 3);
        let ld = eng.execute(&mut hmc, load(0, 0), 0);
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::CmpGeImm(1),
                dst: r(1),
                a: r(0),
                b: None,
                size: SIZE,
                pred: None,
            },
            0,
        );
        let gated = eng.execute(
            &mut hmc,
            LogicInstr::Load {
                dst: r(2),
                addr: 256,
                size: SIZE,
                pred: Some(Predicate::any_nonzero(r(1))),
            },
            0,
        );
        // The predicated load cannot start before the compare resolved,
        // which itself waited for the first load's data.
        assert!(gated.done > ld.done, "predicated load did not wait");
    }

    #[test]
    #[should_panic(expected = "non-predicated")]
    fn hive_engine_rejects_predicates() {
        let (mut hmc, mut eng) = setup(false);
        eng.execute(
            &mut hmc,
            LogicInstr::Load {
                dst: r(0),
                addr: 0,
                size: SIZE,
                pred: Some(Predicate::any_nonzero(r(1))),
            },
            0,
        );
    }

    #[test]
    fn unlock_waits_for_block() {
        let (mut hmc, mut eng) = setup(false);
        eng.execute(&mut hmc, LogicInstr::Lock, 0);
        let ld = eng.execute(&mut hmc, load(0, 0), 0);
        let ul = eng.execute(&mut hmc, LogicInstr::Unlock, 0);
        assert!(ul.done >= ld.done, "unlock before block completion");
        assert_eq!(eng.stats().blocks, 1);
    }

    #[test]
    fn add_reduce_sums_lanes() {
        let (mut hmc, mut eng) = setup(false);
        for i in 0..32u64 {
            hmc.write_word(i * 8, 2);
        }
        eng.execute(&mut hmc, load(0, 0), 0);
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::AddReduce { lane: 0 },
                dst: r(1),
                a: r(0),
                b: None,
                size: SIZE,
                pred: None,
            },
            0,
        );
        assert_eq!(eng.bank().lane(r(1), 0), 64);
    }

    #[test]
    fn add_reduce_dots_against_a_mask_register() {
        let (mut hmc, mut eng) = setup(false);
        // Products at lanes 0..32 are 100 + i; mask selects even lanes.
        for i in 0..32u64 {
            hmc.write_word(i * 8, (100 + i) as i64);
            hmc.write_word(4096 + i * 8, i64::from(i % 2 == 0));
        }
        eng.execute(&mut hmc, load(0, 0), 0);
        eng.execute(&mut hmc, load(1, 4096), 0);
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::AddReduce { lane: 0 },
                dst: r(2),
                a: r(0),
                b: Some(r(1)),
                size: SIZE,
                pred: None,
            },
            0,
        );
        let expect: i64 = (0..32).filter(|i| i % 2 == 0).map(|i| 100 + i).sum();
        assert_eq!(eng.bank().lane(r(2), 0), expect);
        // Lane 1 and beyond stay zero: a 16 B store of the result
        // writes [sum, 0].
        assert_eq!(eng.bank().lane(r(2), 1), 0);
    }

    #[test]
    fn masked_aggregate_tail_round_trips_a_16_byte_partial() {
        // The fused tail end to end at engine level: price * discount
        // dotted against a 0/1 mask, stored as a 16 B partial slot.
        let (mut hmc, mut eng) = setup(false);
        for i in 0..32u64 {
            hmc.write_word(i * 8, (1000 + i) as i64); // price
            hmc.write_word(4096 + i * 8, 5); // discount
            hmc.write_word(8192 + i * 8, i64::from(i < 3)); // mask
        }
        eng.execute(&mut hmc, load(0, 0), 0);
        eng.execute(&mut hmc, load(1, 4096), 0);
        eng.execute(&mut hmc, load(2, 8192), 0);
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::Mul,
                dst: r(0),
                a: r(0),
                b: Some(r(1)),
                size: SIZE,
                pred: None,
            },
            0,
        );
        eng.execute(
            &mut hmc,
            LogicInstr::Alu {
                op: AluOp::AddReduce { lane: 0 },
                dst: r(3),
                a: r(0),
                b: Some(r(2)),
                size: SIZE,
                pred: None,
            },
            0,
        );
        let st = eng.execute(
            &mut hmc,
            LogicInstr::Store {
                src: r(3),
                addr: 12288,
                size: OpSize::new(16).expect("16 B is supported"),
                pred: None,
            },
            0,
        );
        assert!(st.performed);
        let expect: u64 = (0..3).map(|i| (1000 + i) * 5).sum();
        assert_eq!(hmc.read_word(12288), expect as i64);
        assert_eq!(hmc.read_word(12296), 0);
    }
}
