//! The host-side executor: micro-op programs through core + caches.
//!
//! Executes the plans of both host-driven machines — the x86/AVX
//! baseline and the stock HMC atomic ISA. Demand reads/writes go
//! through the cache hierarchy; HMC-ISA dispatches cross the links and
//! run in the vault functional units.

use crate::backend::{ExecutablePlan, PlanCode};
use crate::gather;
use crate::report::{PartitionPhase, PhaseBreakdown, RunReport};
use crate::session::Session;
use hipe_cache::CacheHierarchy;
use hipe_cpu::{Core, MemoryPort};
use hipe_db::{Bitmask, DsmLayout, Query, COLUMN_BYTES, REGION_ROWS};
use hipe_hmc::{AccessKind, Hmc};
use hipe_isa::{MicroOpKind, OpSize, VaultOp};
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

    fn hmc_dispatch(
        &mut self,
        cycle: Cycle,
        addr: u64,
        size: OpSize,
        _op: VaultOp,
        result_bytes: u64,
    ) -> Cycle {
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

/// Executes a compiled micro-op plan (x86 baseline or HMC-ISA) against
/// the session's warm image, expanding its op templates straight into
/// the core.
pub(crate) fn execute(session: &mut Session<'_>, plan: &ExecutablePlan) -> RunReport {
    let sys = session.system();
    let PlanCode::Micro(program) = plan.code() else {
        unreachable!("the host executor requires a micro-op plan");
    };
    let query = plan.query();
    let mut caches = CacheHierarchy::new(sys.config().hierarchy);
    let mut core = Core::new(sys.config().core);

    let mut dispatch_end = 0;
    {
        let mut port = CachedPort {
            hmc: session.hmc_mut(),
            caches: &mut caches,
        };
        program.for_each_op(|op| {
            let end = core.execute(op, &mut port);
            if matches!(op.kind, MicroOpKind::HmcDispatch { .. }) {
                dispatch_end = dispatch_end.max(end);
            }
        });
    }
    let scan_end = core.finish();
    // Scan-phase DRAM traffic, snapshotted before the gather mixes
    // aggregate readback into the meters (mirrors the logic path's
    // per-partition accounting).
    let scan_stats = session.hmc().stats();

    // Functional outcome of the scan kernel: the packed mask words the
    // store stream modelled, from the column values in the cube image.
    let bitmask = functional_mask(
        session.hmc_mut(),
        sys.layout(),
        query,
        program.scanned_regions(),
    );

    // Host-side aggregate gather, through the caches like any other
    // demand traffic.
    if query.aggregates() {
        let mut port = CachedPort {
            hmc: session.hmc_mut(),
            caches: &mut caches,
        };
        gather::emit(&mut core, &mut port, sys, &bitmask);
    }
    let cycles = core.finish();

    let hmc = session.hmc_mut();
    let result = sys.finish_result(hmc, query, bitmask);
    hmc.charge_cache_accesses(caches.stats().total_lookups());
    hmc.finish(cycles);

    let dispatch = if dispatch_end > 0 {
        dispatch_end
    } else {
        scan_end
    };
    RunReport {
        arch: plan.arch(),
        result,
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
        regions_scanned: plan.prune_stats().scanned,
        regions_pruned: plan.prune_stats().pruned,
        energy: hmc.energy(),
        core: core.stats(),
        cache: Some(caches.stats()),
        engine: None,
        hmc: hmc.stats(),
    }
}

/// Rows per packed mask word.
const WORD_ROWS: usize = 64;

/// Evaluates `query` over the 64-row mask words that touch a scanned
/// region, a column slice at a time, and stores the non-zero words at
/// the layout's mask area. Every other word is zero: its rows lie in
/// regions the zone map proved matchless, and the session reset left
/// its image word at zero.
fn functional_mask(hmc: &mut Hmc, layout: &DsmLayout, query: &Query, scanned: &Bitmask) -> Bitmask {
    let rows = layout.rows();
    let mut mask = Bitmask::zeros(rows);
    let mut last = None;
    for region in scanned.iter_ones() {
        let w = region * REGION_ROWS / WORD_ROWS;
        if last == Some(w) {
            continue;
        }
        last = Some(w);
        let start = w * WORD_ROWS;
        let n = (rows - start).min(WORD_ROWS);
        let mut bits = !0u64 >> (WORD_ROWS - n);
        for p in query.predicates() {
            let slice = hmc.read_bytes(
                layout.value_addr(p.column, start),
                n * COLUMN_BYTES as usize,
            );
            let mut hits = 0u64;
            for (i, v) in slice.chunks_exact(COLUMN_BYTES as usize).enumerate() {
                let v = i64::from_le_bytes(v.try_into().expect("8-byte chunk"));
                hits |= (p.cmp.eval(v) as u64) << i;
            }
            bits &= hits;
            if bits == 0 {
                break;
            }
        }
        if bits != 0 {
            mask.set_word(w, bits);
            hmc.write_u64(layout.mask_base() + w as u64 * 8, bits);
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Arch;
    use crate::system::System;
    use hipe_db::scan;

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
        use crate::backend::{Backend, HmcIsaBackend};
        use hipe_isa::OpSize;

        let sys = System::new(4096, 5);
        let q = Query::quantity_below_permille(100);
        let stock = run(&sys, Arch::HmcIsa, &q);
        let wide_backend = HmcIsaBackend {
            op_size: OpSize::MAX,
        };
        let plan = wide_backend.compile(&sys, &q).expect("scan compiles");
        let mut session = sys.session();
        session.reset();
        let wide = wide_backend.execute(&mut session, &plan);
        assert_eq!(stock.result, wide.result);
        assert!(wide.hmc.link_bytes < stock.hmc.link_bytes / 4);
        assert!(wide.cycles < stock.cycles);
    }

    #[test]
    fn packed_mask_lands_in_image() {
        let sys = System::new(128, 9);
        let q = Query::quantity_below_permille(500);
        let mut session = sys.session();
        let report = session.run(Arch::HostX86, &q);
        for w in 0..2 {
            let mut expect = 0u64;
            for b in 0..64 {
                if report.result.bitmask.get(w * 64 + b) {
                    expect |= 1 << b;
                }
            }
            assert_eq!(
                session.hmc().read_u64(sys.mask_base() + w as u64 * 8),
                expect
            );
        }
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
