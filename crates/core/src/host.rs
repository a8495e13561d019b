//! The host-side executor: micro-op programs through core + caches.
//!
//! Executes the plans of both host-driven machines — the x86/AVX
//! baseline and the stock HMC atomic ISA. Demand reads/writes go
//! through the cache hierarchy; HMC-ISA dispatches cross the links and
//! run in the vault functional units.
//!
//! Their timing never reads the data (`tests/seed_invariance.rs`): it
//! follows from the plan's templates, its scanned regions and, for an
//! aggregate, the mask the gather walks. A run takes the three steps of
//! [`replay`](crate::replay): the answer, the key, then replay or
//! simulate. This module supplies the simulation.

use crate::backend::ExecutablePlan;
use crate::gather;
use crate::replay::{self, TimedProgram, Timing};
use crate::report::{PartitionPhase, PhaseBreakdown, RunReport};
use crate::system::System;
use hipe_cache::CacheHierarchy;
use hipe_compiler::HostScanProgram;
use hipe_cpu::{Core, MemoryPort};
use hipe_db::Bitmask;
use hipe_hmc::{AccessKind, Hmc};
use hipe_isa::{MicroOpKind, OpSize};
use hipe_sim::Cycle;

/// Memory port of the host-driven architectures: demand reads/writes go
/// through the cache hierarchy, HMC-ISA dispatches go straight to the
/// cube, and logic-layer hooks are unreachable (the host lowerings
/// never emit them).
struct CachedPort<'a> {
    hmc: &'a mut Hmc,
    caches: &'a mut CacheHierarchy,
}

impl MemoryPort for CachedPort<'_> {
    fn read(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.caches.read(self.hmc, cycle, addr, bytes)
    }

    fn write(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.caches.write(self.hmc, cycle, addr, bytes)
    }

    fn hmc_dispatch(&mut self, cycle: Cycle, addr: u64, size: OpSize, result_bytes: u64) -> Cycle {
        self.hmc
            .access(
                cycle,
                addr,
                size.bytes(),
                AccessKind::PimOp { result_bytes },
            )
            .complete
    }

    fn logic_dispatch(&mut self, _cycle: Cycle) -> Cycle {
        unreachable!("host-driven machines have no logic-layer engine")
    }

    fn logic_wait(&mut self, _cycle: Cycle) -> Cycle {
        unreachable!("host-driven machines have no logic-layer engine")
    }
}

/// Executes a compiled micro-op plan (x86 baseline or HMC-ISA) on
/// `sys`.
///
/// The run's answer is computed on every run, and its timing is
/// simulated only on a miss in the system's timing memo
/// ([`replay::run`]).
pub(crate) fn execute(sys: &System, plan: &ExecutablePlan, program: &HostScanProgram) -> RunReport {
    let aggregates = plan.query().aggregates();
    replay::run(
        sys,
        plan,
        TimedProgram::Host(program.without_operands()),
        false,
        aggregates,
        |hmc, answer| simulate(sys, hmc, program, aggregates.then_some(&answer.bitmask)),
    )
}

/// Times `program` on fresh core and cache models over `hmc`, a new
/// cube, then the aggregate gather of `gather`'s matches through the
/// same caches.
fn simulate(
    sys: &System,
    hmc: &mut Hmc,
    program: &HostScanProgram,
    gather: Option<&Bitmask>,
) -> Timing {
    let mut caches = CacheHierarchy::new(sys.config().hierarchy);
    let mut core = Core::new(sys.config().core);
    let mut port = CachedPort {
        hmc,
        caches: &mut caches,
    };
    let mut dispatch_end = 0;
    program.for_each_op(|op| {
        let end = core.execute(op, &mut port);
        if matches!(op.kind, MicroOpKind::HmcDispatch { .. }) {
            dispatch_end = dispatch_end.max(end);
        }
    });
    let scan_end = core.finish();
    // Scan-phase DRAM traffic, snapshotted before the gather mixes
    // aggregate readback into the meters (mirrors the logic path's
    // per-partition accounting).
    let scan_stats = port.hmc.stats();
    // Host-side aggregate gather, through the caches like any other
    // demand traffic.
    if let Some(mask) = gather {
        gather::emit(&mut core, &mut port, sys, mask);
    }
    let cycles = core.finish();
    let hmc = port.hmc.stats();

    let dispatch = if dispatch_end > 0 {
        dispatch_end
    } else {
        scan_end
    };
    Timing {
        cycles,
        phases: PhaseBreakdown {
            // The x86 baseline executes the scan in place (no separate
            // dispatch phase); the HMC ISA's phase ends with the last
            // vault dispatch response.
            dispatch,
            scan: scan_end,
            gather_aggregate: cycles - scan_end,
        },
        // Host-driven machines run undivided: one partition spanning
        // the whole vault sweep.
        partitions: vec![PartitionPhase {
            partition: 0,
            first_vault: 0,
            vaults: sys.config().hmc.vaults,
            instructions: program.len() as u64,
            dispatch,
            scan: scan_end,
            dram_bytes: scan_stats.bytes_read + scan_stats.bytes_written,
        }],
        core: core.stats(),
        cache: Some(caches.stats()),
        engine: None,
        hmc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Arch;
    use crate::system::System;
    use hipe_db::{scan, Query};

    fn run(sys: &System, arch: Arch, q: &Query) -> RunReport {
        sys.session().run(arch, q)
    }

    #[test]
    fn baseline_matches_reference_executor() {
        let sys = System::new(3000, 21);
        let q = Query::q6();
        let report = run(&sys, Arch::HostX86, &q);
        let reference = scan::reference(sys.table(), &q);
        assert_eq!(report.result, reference);
        assert!(report.cycles > 0);
    }

    #[test]
    fn hmc_isa_matches_reference_executor() {
        let sys = System::new(3000, 21);
        let q = Query::q6();
        let report = run(&sys, Arch::HmcIsa, &q);
        assert_eq!(report.result, scan::reference(sys.table(), &q));
        // Every dispatched vault op ran in a functional unit.
        assert!(report.hmc.fu_ops > 0);
        assert!(report.phases.dispatch <= report.phases.scan);
    }

    #[test]
    fn baseline_streams_through_caches_and_links() {
        let sys = System::new(4096, 5);
        let q = Query::quantity_below_permille(100);
        let report = run(&sys, Arch::HostX86, &q);
        let cache = report.cache.expect("host path has caches");
        assert!(cache.accesses > 0);
        assert!(report.hmc.link_bytes > 0);
        // The whole quantity column crossed the DRAM banks.
        assert!(report.hmc.bytes_read >= 4096 * 8);
    }

    #[test]
    fn wider_hmc_ops_cut_link_traffic_and_cycles() {
        // The paper's operand-size argument: the stock 16 B atomic ops
        // pay a packet-header round trip per two rows, so the links see
        // more traffic than even the streaming baseline; widening the
        // operand to a full row buffer amortizes the headers away.
        use crate::backend::Backend;
        use hipe_isa::OpSize;

        let sys = System::new(4096, 5);
        let q = Query::quantity_below_permille(100);
        let stock = run(&sys, Arch::HmcIsa, &q);
        let plan = Backend::HmcIsa {
            op_size: OpSize::MAX,
        }
        .compile(&sys, &q)
        .expect("scan compiles");
        let wide = sys.session().run_plan(&plan);
        assert_eq!(stock.result, wide.result);
        assert!(wide.hmc.link_bytes < stock.hmc.link_bytes / 4);
        assert!(wide.cycles < stock.cycles);
    }

    #[test]
    fn aggregate_gather_is_timed() {
        let sys = System::new(4096, 11);
        let with = run(&sys, Arch::HostX86, &Query::q6());
        assert!(with.phases.gather_aggregate > 0);
        assert_eq!(with.cycles, with.phases.scan + with.phases.gather_aggregate);
        let without = run(&sys, Arch::HostX86, &Query::quantity_below_permille(100));
        assert_eq!(without.phases.gather_aggregate, 0);
        assert_eq!(without.cycles, without.phases.scan);
    }
}
