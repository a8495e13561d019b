//! The near-data executor: HIVE and HIPE logic-layer execution on a
//! cluster of per-vault-group engines.
//!
//! A compiled plan carries one region template that every vault group
//! expands over the regions it owns
//! ([`LogicScanProgram::cursor`](hipe_compiler::LogicScanProgram::cursor)).
//! The host posts the partitions' instructions round-robin, pulling
//! each from its partition's cursor as it goes — so every engine starts
//! draining its stream almost immediately, and no stream is ever
//! stored — and then blocks until the *last* engine's unlock
//! acknowledgement. Each engine runs only against its own vault
//! group's banks (the [`EngineCluster`] enforces this), so N engines
//! overlap their DRAM latencies and the scan phase shrinks
//! near-linearly with the partition count until the shared link and
//! readback bandwidth saturates. A single-partition plan reproduces
//! the historical monolithic dispatch cycle for cycle.
//!
//! Aggregate queries run *fused* by default: the compiled programs'
//! per-region tails multiply and reduce the matched values inside the
//! logic layer, and the host only reads back the compact partial sums
//! (timed as the `gather_aggregate` phase). Plans compiled with
//! `fused_aggregate: false` keep the per-tuple host gather instead.

use crate::backend::ExecutablePlan;
use crate::gather;
use crate::report::{PartitionPhase, PhaseBreakdown, RunReport};
use crate::session::Session;
use hipe_compiler::{LogicCursor, LogicScanProgram, REGION_ROWS};
use hipe_cpu::{Core, MemoryPort};
use hipe_db::scan::ScanResult;
use hipe_db::Bitmask;
use hipe_hmc::Hmc;
use hipe_isa::{LogicInstr, MicroOp, MicroOpKind, OpSize, VaultOp};
use hipe_logic::EngineCluster;
use hipe_sim::Cycle;

/// Encoded size of one logic-layer instruction on the link: one 16 B
/// flit. The packet header (`HmcConfig::packet_header_bytes`) is added
/// on top when the dispatch packet is sized.
const INSTR_FLIT_BYTES: u64 = 16;

/// Memory port of the HIVE/HIPE architectures: `logic_dispatch`
/// forwards the instruction the dispatch loop pulled over the request
/// link into its partition's co-simulated engine; `logic_wait` blocks
/// on the last outstanding unlock acknowledgement. Demand reads/writes
/// bypass the caches (the scan kernel itself never issues them; they
/// exist so diagnostics and future mixed kernels have an uncached
/// path).
struct ClusterPort<'a> {
    hmc: &'a mut Hmc,
    cluster: &'a mut EngineCluster,
    /// The next instruction to dispatch and its partition.
    pending: Option<(usize, LogicInstr)>,
    /// Link bytes of one instruction packet.
    instr_bytes: u64,
    /// One-way link latency (to convert arrival back to handoff time).
    link_latency: Cycle,
    /// Arrival cycle of each partition's unlock acknowledgement.
    acks: Vec<Cycle>,
}

impl MemoryPort for ClusterPort<'_> {
    fn read(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.hmc
            .access(cycle, addr, bytes, hipe_hmc::AccessKind::Read)
            .complete
    }

    fn write(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.hmc
            .access(cycle, addr, bytes, hipe_hmc::AccessKind::Write)
            .complete
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
                hipe_hmc::AccessKind::PimOp { result_bytes },
            )
            .complete
    }

    fn logic_dispatch(&mut self, cycle: Cycle) -> Cycle {
        let (p, instr) = self
            .pending
            .take()
            .expect("a dispatch micro-op without a pulled instruction");
        let at_cube = self.hmc.link_request(cycle, self.instr_bytes);
        let outcome = self.cluster.execute(self.hmc, p, instr, at_cube);
        if matches!(instr, LogicInstr::Unlock) {
            self.acks[p] = self
                .hmc
                .link_response(outcome.done, self.instr_bytes)
                .max(self.acks[p]);
        }
        // The store-queue entry frees once the last byte left the host,
        // i.e. one link latency before the packet reaches the cube.
        at_cube - self.link_latency
    }

    fn logic_wait(&mut self, cycle: Cycle) -> Cycle {
        cycle.max(self.acks.iter().copied().max().unwrap_or(0))
    }
}

/// The dispatch order: round `i` posts instruction `i` of every
/// partition whose stream is that long, partitions in index order, so
/// all engines fill concurrently (with one partition this is exactly
/// the historical in-order stream). `f` gets each partition and
/// instruction as the cursors expand them.
fn round_robin(cursors: &mut [LogicCursor<'_>], mut f: impl FnMut(usize, LogicInstr)) {
    let mut live = true;
    while live {
        live = false;
        for (p, cursor) in cursors.iter_mut().enumerate() {
            if let Some(instr) = cursor.next() {
                live = true;
                f(p, instr);
            }
        }
    }
}

/// Executes a compiled logic-layer plan (HIVE or HIPE) against the
/// session's warm image.
pub(crate) fn execute(
    session: &mut Session<'_>,
    plan: &ExecutablePlan,
    program: &LogicScanProgram,
    predicated: bool,
) -> RunReport {
    let sys = session.system();
    let query = plan.query();
    let logic_cfg = if predicated {
        sys.config().hipe
    } else {
        sys.config().hive
    };
    let nparts = program.partitions();
    let specs: Vec<hipe_isa::PartitionSpec> = (0..nparts).map(|p| program.spec(p)).collect();
    let mut cluster = EngineCluster::new(logic_cfg, &specs);
    let mut core = Core::new(sys.config().core);

    let mut dispatch_ends = vec![0 as Cycle; nparts];
    let mut acks = vec![0 as Cycle; nparts];
    {
        let mut port = ClusterPort {
            hmc: session.hmc_mut(),
            cluster: &mut cluster,
            pending: None,
            instr_bytes: sys.config().hmc.packet_header_bytes + INSTR_FLIT_BYTES,
            link_latency: sys.config().hmc.link_latency,
            acks: vec![0; nparts],
        };
        // The host posts one dispatch micro-op per instruction, then
        // blocks on the last engine's unlock acknowledgement.
        let mut cursors: Vec<LogicCursor<'_>> = (0..nparts).map(|p| program.cursor(p)).collect();
        round_robin(&mut cursors, |p, instr| {
            port.pending = Some((p, instr));
            let end = core.execute(MicroOp::new(MicroOpKind::LogicDispatch), &mut port);
            dispatch_ends[p] = dispatch_ends[p].max(end);
        });
        core.execute(MicroOp::new(MicroOpKind::LogicWait), &mut port);
        acks.copy_from_slice(&port.acks);
    }
    let scan_end = core.finish();
    // Scan-phase DRAM traffic per vault group, before the gather mixes
    // host readback into the meters.
    let scan_group_activity = session.hmc().group_activity(nparts);

    let bitmask = read_mask(session.hmc(), program, sys.layout().rows());

    // Aggregate phase. The fused path reads back and combines the
    // engine-stored per-region partials — a few link packets; the
    // host-gather path (x86/HMC-ISA style, kept on the logic machines
    // for the paper's comparison) fetches every matched tuple's values
    // over the serial links uncached.
    if query.aggregates() {
        let mut port = gather::UncachedPort {
            hmc: session.hmc_mut(),
        };
        if let Some(agg_base) = program.aggregate_base() {
            gather::emit_partial_readback(&mut core, &mut port, agg_base, program.agg_bytes());
        } else {
            gather::emit(&mut core, &mut port, sys, &bitmask);
        }
    }
    let cycles = core.finish();

    let hmc = session.hmc_mut();
    let result = if program.aggregate_base().is_some() {
        // The functional aggregate comes from the partials the engines
        // actually stored, so the fused path is checked bit for bit
        // against the reference executor like everything else. Pruned
        // regions' slots are zero by the reset protocol.
        let matches = bitmask.count_ones();
        let aggregate = program
            .scanned_regions()
            .iter_ones()
            .map(|i| hmc.read_word(program.agg_addr(i)) as i128)
            .sum();
        ScanResult {
            bitmask,
            matches,
            aggregate: Some(aggregate),
        }
    } else {
        sys.finish_result(hmc, query, bitmask)
    };
    hmc.finish(cycles);

    let partitions = (0..nparts)
        .map(|p| {
            let activity = scan_group_activity[p];
            let spec = program.spec(p);
            PartitionPhase {
                partition: p,
                first_vault: spec.first_vault,
                vaults: spec.vault_count,
                instructions: program.partition_instrs(p) as u64,
                dispatch: dispatch_ends[p],
                scan: acks[p],
                dram_bytes: activity.bytes_read + activity.bytes_written,
            }
        })
        .collect();

    RunReport {
        arch: plan.arch(),
        result,
        cycles,
        phases: PhaseBreakdown {
            dispatch: dispatch_ends.iter().copied().max().unwrap_or(0),
            scan: scan_end,
            gather_aggregate: cycles - scan_end,
        },
        partitions,
        regions_scanned: plan.prune_stats().scanned,
        regions_pruned: plan.prune_stats().pruned,
        energy: hmc.energy(),
        core: core.stats(),
        cache: None,
        engine: Some(cluster.stats()),
        hmc: hmc.stats(),
    }
}

/// Reads the engine-written per-region masks (one 0/1 lane per row)
/// back from the cube image as a row bitmask: each scanned region's
/// 256 B chunk once, packed into its 32 bits. Pruned regions' chunks
/// are zero by the session reset protocol, so they are never read.
fn read_mask(hmc: &Hmc, program: &LogicScanProgram, rows: usize) -> Bitmask {
    let mut mask = Bitmask::zeros(rows);
    for region in program.scanned_regions().iter_ones() {
        let lanes = hmc.read_words(program.mask_addr(region), REGION_ROWS);
        let mut bits = 0u64;
        for (lane, &v) in lanes.iter().enumerate() {
            bits |= u64::from(v != 0) << lane;
        }
        // Lanes past the last row are dropped by `set_word`.
        let (w, shift) = (region * REGION_ROWS / 64, region * REGION_ROWS % 64);
        mask.set_word(w, mask.words()[w] | bits << shift);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PlanCode;
    use crate::report::Arch;
    use crate::system::System;
    use hipe_db::{scan, Query};

    fn run(sys: &System, predicated: bool, q: &Query) -> RunReport {
        let arch = if predicated { Arch::Hipe } else { Arch::Hive };
        sys.session().run(arch, q)
    }

    #[test]
    fn hive_matches_reference_executor() {
        let sys = System::new(2000, 31);
        let q = Query::q6();
        let report = run(&sys, false, &q);
        assert_eq!(report.result, scan::reference(sys.table(), &q));
        let engine = report.engine.expect("logic path has an engine");
        assert_eq!(engine.squashed, 0);
        assert_eq!(engine.blocks, 1);
    }

    #[test]
    fn hipe_matches_reference_and_squashes() {
        let sys = System::new(5000, 32);
        // 1 % selectivity: most regions die after the first compare.
        let q = Query::quantity_below_permille(10);
        let report = run(&sys, true, &q);
        assert_eq!(report.result, scan::reference(sys.table(), &q));
        assert!(report.engine.expect("engine stats").squashed > 0);
    }

    #[test]
    fn hipe_no_faster_than_hive_is_never_true() {
        let sys = System::new(8192, 33);
        let q = Query::quantity_below_permille(10);
        let hive = run(&sys, false, &q);
        let hipe = run(&sys, true, &q);
        assert_eq!(hive.result, hipe.result);
        assert!(hipe.cycles <= hive.cycles, "predication slowed the scan");
    }

    #[test]
    fn column_data_stays_off_the_links() {
        let sys = System::new(4096, 34);
        let q = Query::quantity_below_permille(100);
        let report = run(&sys, true, &q);
        // Only instruction packets and the ack cross the links: far less
        // than the 8 B/row the baseline must move.
        assert!(report.hmc.link_bytes < 4096 * 8 / 2);
    }

    #[test]
    fn fused_aggregate_matches_reference_and_reads_back_partials() {
        let sys = System::new(3000, 36);
        let q = Query::q6();
        for predicated in [false, true] {
            let report = run(&sys, predicated, &q);
            // The aggregate is reconstructed from the partials the
            // engine stored — bit-identical to the reference executor.
            assert_eq!(report.result, scan::reference(sys.table(), &q));
            // The readback is timed as the gather phase.
            assert!(report.phases.gather_aggregate > 0);
            let engine = report.engine.expect("logic path has an engine");
            // Scan ALUs plus one Mul and one AddReduce per live region.
            assert!(engine.alu_ops > 0);
        }
    }

    #[test]
    fn squashed_aggregate_tails_leave_zero_partials() {
        // A matchless aggregate: every region squashes its tail (HIPE),
        // and the combined sum is exactly zero on both machines.
        let sys = System::new(2048, 37);
        let q = Query::quantity_below_permille(0).with_aggregate();
        let hive = run(&sys, false, &q);
        let hipe = run(&sys, true, &q);
        assert_eq!(hive.result.aggregate, Some(0));
        assert_eq!(hipe.result.aggregate, Some(0));
        assert_eq!(hive.result, hipe.result);
        assert!(hipe.engine.expect("engine stats").squashed > 0);
        // HIPE's squashed tails skip the price/discount loads.
        assert!(hipe.hmc.bytes_read < hive.hmc.bytes_read);
    }

    #[test]
    fn dispatch_phase_precedes_scan_completion() {
        let sys = System::new(4096, 35);
        let report = run(&sys, true, &Query::q6());
        assert!(report.phases.dispatch > 0);
        assert!(report.phases.dispatch <= report.phases.scan);
        assert_eq!(
            report.cycles,
            report.phases.scan + report.phases.gather_aggregate
        );
    }

    #[test]
    fn single_partition_reports_one_whole_sweep_partition() {
        let sys = System::new(2048, 40);
        let report = run(&sys, true, &Query::q6());
        assert_eq!(report.partitions.len(), 1);
        let p = &report.partitions[0];
        assert_eq!((p.partition, p.first_vault, p.vaults), (0, 0, 32));
        assert_eq!(p.scan, report.phases.scan);
        assert_eq!(p.dispatch, report.phases.dispatch);
        assert!(p.dram_bytes > 0);
    }

    #[test]
    fn partitioned_run_reports_per_engine_phases() {
        let sys = System::partitioned(4096, 41, 4);
        for predicated in [false, true] {
            let report = run(&sys, predicated, &Query::q6());
            assert_eq!(report.result, scan::reference(sys.table(), &Query::q6()));
            assert_eq!(report.partitions.len(), 4);
            let plan_instrs: u64 = report.partitions.iter().map(|p| p.instructions).sum();
            assert_eq!(
                plan_instrs,
                report.engine.expect("cluster stats").instructions
            );
            for p in &report.partitions {
                assert_eq!(p.vaults, 8);
                assert_eq!(p.first_vault, p.partition * 8);
                // 4096 rows spread all partitions: everyone worked.
                assert!(p.instructions > 0);
                assert!(p.scan > 0 && p.scan <= report.phases.scan);
                assert!(p.dram_bytes > 0, "partition {} idle", p.partition);
            }
            // The overall scan ends with the slowest engine.
            let max_scan = report.partitions.iter().map(|p| p.scan).max();
            assert_eq!(max_scan, Some(report.phases.scan));
        }
    }

    #[test]
    fn empty_partitions_stay_idle() {
        // 64 rows = 2 regions, both in partition 0 of 8.
        let sys = System::partitioned(64, 42, 8);
        let q = Query::quantity_below_permille(500);
        let report = run(&sys, true, &q);
        assert_eq!(report.result, scan::reference(sys.table(), &q));
        assert_eq!(report.partitions.len(), 8);
        assert!(report.partitions[0].instructions > 0);
        for p in &report.partitions[1..] {
            assert_eq!(p.instructions, 0, "partition {}", p.partition);
            assert_eq!(p.scan, 0);
            assert_eq!(p.dram_bytes, 0);
        }
    }

    #[test]
    fn round_robin_schedule_interleaves_partitions() {
        let sys = System::partitioned(4096, 43, 4);
        let plan = System::backend(Arch::Hive)
            .compile(&sys, &Query::q6())
            .expect("Q6 compiles");
        let PlanCode::Logic { program, .. } = plan.code() else {
            unreachable!("logic plan");
        };
        let mut cursors: Vec<_> = (0..4).map(|p| program.cursor(p)).collect();
        let mut schedule = Vec::new();
        round_robin(&mut cursors, |p, _| schedule.push(p));
        assert_eq!(schedule.len(), program.total_instrs());
        // The first four dispatches hit four different engines.
        assert_eq!(&schedule[..4], &[0, 1, 2, 3]);
    }
}
