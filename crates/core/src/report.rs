//! Run reports: what one end-to-end query execution produced.

use hipe_cache::CacheStats;
use hipe_cpu::CoreStats;
use hipe_db::scan::ScanResult;
use hipe_db::Bitmask;
use hipe_hmc::{EnergyBreakdown, HmcStats};
use hipe_logic::EngineStats;
use hipe_sim::Cycle;
use hipe_trace::{Args, Tracer, TrackId, Value};

/// The simulated architectures.
///
/// `Arch` is a thin label: [`System::backend`](crate::System::backend)
/// resolves each variant to its stock [`Backend`](crate::Backend),
/// which lowers queries for that machine, and a session runs the
/// resulting plan on the host or the near-data executor. The set is
/// closed: every dispatch on it is an exhaustive `match`, so adding a
/// machine is a compile error at each place that must handle it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// x86/AVX baseline: everything in the core, data through the
    /// caches and serial links.
    HostX86,
    /// Stock HMC atomic ISA: the core dispatches 16 B read-operate
    /// instructions executed by the vault functional units; mask
    /// combining stays on the host.
    HmcIsa,
    /// HIVE: unpredicated logic-layer execution inside the cube.
    Hive,
    /// HIPE: HIVE plus the predication match logic.
    Hipe,
}

impl Arch {
    /// All four machines in the paper's comparison order.
    pub const ALL: [Arch; 4] = [Arch::HostX86, Arch::HmcIsa, Arch::Hive, Arch::Hipe];
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Arch::HostX86 => "x86",
            Arch::HmcIsa => "HMC-ISA",
            Arch::Hive => "HIVE",
            Arch::Hipe => "HIPE",
        })
    }
}

/// Cycle-level breakdown of one run into its pipeline phases.
///
/// The phases partition the run's timeline:
///
/// * `dispatch` — cycle at which the host finished handing the lowered
///   scan program to its execution engine (completion of the last
///   posted logic-layer instruction packet for HIVE/HIPE, of the last
///   vault dispatch for the HMC ISA; equal to `scan` on the x86
///   baseline, which executes the scan in place);
/// * `scan` — cycle at which the match mask was complete in cube
///   memory;
/// * `gather_aggregate` — additional cycles spent on the host-side
///   gather of matched values for the query's aggregate (zero for
///   non-aggregating queries).
///
/// `scan + gather_aggregate` equals [`RunReport::cycles`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Completion cycle of command dispatch.
    pub dispatch: Cycle,
    /// Completion cycle of the scan itself.
    pub scan: Cycle,
    /// Extra cycles of the host-side aggregate gather.
    pub gather_aggregate: Cycle,
}

impl PhaseBreakdown {
    /// Emits the phases onto `track` of `sink` as spans from absolute
    /// cycle `at`: `dispatch` (omitted unless it ends before the scan:
    /// the x86 baseline's in-place scan has no separate dispatch
    /// phase), `scan` carrying `scan_args`, and `gather` when the
    /// query aggregates. A phase of zero length emits nothing.
    /// [`RunReport::trace_into`] and the service's per-replica trace
    /// both nest their phases through this.
    pub fn trace_into(self, sink: &mut Tracer, track: TrackId, at: Cycle, scan_args: Args) {
        let (scan_end, gather) = (at + self.scan, self.gather_aggregate);
        let dispatch_end = if self.dispatch < self.scan {
            at + self.dispatch
        } else {
            at
        };
        if dispatch_end > at {
            sink.span_on(track, "dispatch", at, dispatch_end, Vec::new());
        }
        if scan_end > at {
            sink.span_on(track, "scan", dispatch_end, scan_end, scan_args);
        }
        if gather > 0 {
            sink.span_on(track, "gather", scan_end, scan_end + gather, Vec::new());
        }
    }
}

/// One execution partition's share of a run.
///
/// On HIVE/HIPE each partition is one vault group's logic-layer
/// engine; the host-driven machines report a single partition covering
/// the whole cube. An idle partition (its vault group holds no region
/// of the table) reports zero instructions and zero-cycle phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionPhase {
    /// Partition index.
    pub partition: usize,
    /// First vault of the partition's vault group.
    pub first_vault: usize,
    /// Vaults in the group.
    pub vaults: usize,
    /// Lowered instructions this partition executed.
    pub instructions: u64,
    /// Completion cycle of this partition's command dispatch.
    pub dispatch: Cycle,
    /// Completion cycle of this partition's scan (its engine's unlock
    /// acknowledgement arriving at the host; [`PhaseBreakdown::scan`]
    /// is the maximum over partitions).
    pub scan: Cycle,
    /// DRAM bytes moved in this partition's vault group during the
    /// scan phase (reads + writes).
    pub dram_bytes: u64,
}

/// Outcome of one query execution on one architecture.
///
/// `result` is the functional answer (identical across architectures
/// by construction — the integration tests enforce it); the remaining
/// fields are the measurements the paper's figures are built from.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Architecture that produced this report.
    pub arch: Arch,
    /// Functional scan result (bitmask, match count, aggregate).
    pub result: ScanResult,
    /// End-to-end cycle count (scan plus aggregate gather).
    pub cycles: Cycle,
    /// Per-phase cycle breakdown (dispatch / scan / gather-aggregate).
    pub phases: PhaseBreakdown,
    /// Per-partition breakdown: one entry per vault-group engine on
    /// HIVE/HIPE, a single whole-cube entry on the host machines.
    pub partitions: Vec<PartitionPhase>,
    /// 32-row regions the compiled plan actually scanned.
    pub regions_scanned: usize,
    /// 32-row regions the zone map pruned at compile time (zero unless
    /// the system was configured with
    /// [`pruning`](crate::SystemConfig::pruning)). Pruned regions
    /// contribute exact-zero mask words and aggregate lanes, so
    /// `result` is bit-identical to the unpruned run's.
    pub regions_pruned: usize,
    /// Energy across cube, links, logic and caches: the
    /// [`EnergyModel::paper`](hipe_hmc::EnergyModel::paper) price of
    /// this report's `hmc` counters, its `cache` lookups
    /// ([`CacheStats::total_lookups`]) and its `cycles`.
    pub energy: EnergyBreakdown,
    /// Out-of-order core activity.
    pub core: CoreStats,
    /// Cache hierarchy activity (host-path architectures only).
    pub cache: Option<CacheStats>,
    /// Logic-layer engine activity (HIVE/HIPE only).
    pub engine: Option<EngineStats>,
    /// Cube activity.
    pub hmc: HmcStats,
}

impl RunReport {
    /// The report of a sub-query that was never dispatched because a
    /// zone-map rollup proved no region of the `rows`-tuple table
    /// could match: an all-zero mask (the exact answer), zero cycles
    /// and energy, and every one of the table's `regions` counted as
    /// pruned. `hipe-serve` synthesizes these for shards its scatter
    /// path skips; an aggregating query gets the exact `Some(0)` sum.
    pub fn skipped(arch: Arch, rows: usize, regions: usize, aggregating: bool) -> RunReport {
        RunReport {
            arch,
            result: ScanResult {
                bitmask: Bitmask::zeros(rows),
                matches: 0,
                aggregate: aggregating.then_some(0),
            },
            cycles: 0,
            phases: PhaseBreakdown::default(),
            partitions: Vec::new(),
            regions_scanned: 0,
            regions_pruned: regions,
            energy: EnergyBreakdown::default(),
            core: CoreStats::default(),
            cache: None,
            engine: None,
            hmc: HmcStats::default(),
        }
    }

    /// Speedup of this run relative to `other` (>1 means faster).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        other.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Fraction of tuples selected by the scan
    /// ([`ScanResult::selectivity`]: 0.0 over an empty table).
    pub fn selectivity(&self) -> f64 {
        self.result.selectivity()
    }

    /// Emits this run onto `track` of `sink` as a `name`d span at
    /// absolute cycle `at`, with the phase breakdown nested inside it:
    /// `dispatch` (omitted on the x86 baseline, whose in-place scan
    /// has no separate dispatch phase), `scan`, and `gather` when the
    /// query aggregates. A zone-map pruning decision becomes a
    /// `zonemap` instant, and each partition contributes a
    /// `dram_bytes` counter sample at its scan-completion cycle.
    ///
    /// Emission only *reads* the report — tracing can never perturb
    /// the cycle accounting it describes.
    pub fn trace_into(&self, sink: &mut Tracer, track: TrackId, at: Cycle, name: &str) {
        sink.span_on(
            track,
            name,
            at,
            at + self.cycles,
            vec![
                ("arch", self.arch.to_string().into()),
                ("matches", self.result.matches.into()),
                ("regions_scanned", self.regions_scanned.into()),
                ("regions_pruned", self.regions_pruned.into()),
            ],
        );
        if self.regions_pruned > 0 {
            sink.instant(
                track,
                "zonemap",
                at,
                vec![
                    ("scanned", self.regions_scanned.into()),
                    ("pruned", self.regions_pruned.into()),
                ],
            );
        }
        if self.cycles == 0 {
            // A zone-map-skipped sub-query: no phases to show.
            return;
        }
        self.phases.trace_into(
            sink,
            track,
            at,
            vec![("partitions", self.partitions.len().into())],
        );
        for part in &self.partitions {
            sink.counter(track, "dram_bytes", at + part.scan, part.dram_bytes);
        }
    }

    /// The run's metrics as one JSON object, members in name order:
    /// `cycles`, `matches`, `phase.{dispatch,scan,gather}_cyc` (the
    /// [`PhaseBreakdown`]), `energy.{dram,link,logic,cache,total}_pj`
    /// (fixed to one decimal), `zonemap.*`, `core.*`, `hmc.*`,
    /// `cache.*` (host-path machines) or `engine.*` (HIVE/HIPE), and,
    /// when the run has partitions, their summed
    /// `partition.dram_bytes` and a `partition.scan_cyc`
    /// `{count, sum, min, max}` summary of their scan-completion
    /// cycles. Every other member is an integer. This is the one place
    /// a run metric's name is spelled: the models only count into
    /// their `*Stats` structs, and the figures file and the trace
    /// carry this object under a prefix.
    pub fn metrics(&self) -> Value {
        let (core, hmc, e) = (&self.core, &self.hmc, &self.energy);
        let pj = |x: f64| Value::fixed(x, 1);
        let mut m: Vec<(&str, Value)> = vec![
            ("cycles", self.cycles.into()),
            ("matches", self.result.matches.into()),
            ("phase.dispatch_cyc", self.phases.dispatch.into()),
            ("phase.scan_cyc", self.phases.scan.into()),
            ("phase.gather_cyc", self.phases.gather_aggregate.into()),
            ("energy.dram_pj", pj(e.dram_pj())),
            ("energy.link_pj", pj(e.link_pj())),
            ("energy.logic_pj", pj(e.logic_pj())),
            ("energy.cache_pj", pj(e.cache_pj())),
            ("energy.total_pj", pj(e.total_pj())),
            ("zonemap.regions_scanned", self.regions_scanned.into()),
            ("zonemap.regions_pruned", self.regions_pruned.into()),
            ("core.ops", core.ops.into()),
            ("core.loads", core.loads.into()),
            ("core.stores", core.stores.into()),
            ("core.branches", core.branches.into()),
            ("core.mispredicts", core.mispredicts.into()),
            ("hmc.activations", hmc.activations.into()),
            ("hmc.bytes_read", hmc.bytes_read.into()),
            ("hmc.bytes_written", hmc.bytes_written.into()),
            ("hmc.link_bytes", hmc.link_bytes.into()),
            ("hmc.fu_ops", hmc.fu_ops.into()),
        ];
        if let Some(c) = &self.cache {
            m.extend([
                ("cache.l1_hits", c.l1_hits.into()),
                ("cache.l1_misses", c.l1_misses.into()),
                ("cache.l2_hits", c.l2_hits.into()),
                ("cache.l2_misses", c.l2_misses.into()),
                ("cache.l3_hits", c.l3_hits.into()),
                ("cache.l3_misses", c.l3_misses.into()),
                ("cache.prefetches", c.prefetches.into()),
                ("cache.prefetch_hits", c.prefetch_hits.into()),
                ("cache.writebacks", c.writebacks.into()),
                ("cache.accesses", c.accesses.into()),
            ]);
        }
        if let Some(e) = &self.engine {
            m.extend([
                ("engine.instructions", e.instructions.into()),
                ("engine.dram_loads", e.dram_loads.into()),
                ("engine.dram_stores", e.dram_stores.into()),
                ("engine.alu_ops", e.alu_ops.into()),
                ("engine.squashed", e.squashed.into()),
                ("engine.blocks", e.blocks.into()),
            ]);
        }
        if !self.partitions.is_empty() {
            let parts = &self.partitions;
            let dram_bytes: u64 = parts.iter().map(|p| p.dram_bytes).sum();
            m.push(("partition.dram_bytes", dram_bytes.into()));
            m.push((
                "partition.scan_cyc",
                Value::summary(parts.iter().map(|p| p.scan)),
            ));
        }
        m.sort_unstable_by_key(|&(name, _)| name);
        Value::object(m)
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} cyc, {} / {} tuples ({:.2} %), energy {}",
            self.arch,
            self.cycles,
            self.result.matches,
            self.result.bitmask.len(),
            100.0 * self.selectivity(),
            self.energy,
        )?;
        if self.regions_pruned > 0 {
            write!(
                f,
                " [zonemap: {} regions scanned, {} pruned]",
                self.regions_scanned, self.regions_pruned
            )?;
        }
        if self.partitions.len() > 1 {
            write!(f, " [{} engines: scan", self.partitions.len())?;
            for (i, p) in self.partitions.iter().enumerate() {
                let sep = if i == 0 { ' ' } else { '/' };
                write!(f, "{sep}{}", p.scan)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipe_db::Bitmask;

    fn dummy(arch: Arch, cycles: Cycle, matches: usize) -> RunReport {
        let mut bitmask = Bitmask::zeros(100);
        for i in 0..matches {
            bitmask.set(i);
        }
        RunReport {
            arch,
            result: ScanResult {
                bitmask,
                matches,
                aggregate: None,
            },
            cycles,
            phases: PhaseBreakdown {
                dispatch: cycles,
                scan: cycles,
                gather_aggregate: 0,
            },
            partitions: vec![PartitionPhase {
                partition: 0,
                first_vault: 0,
                vaults: 32,
                instructions: 1,
                dispatch: cycles,
                scan: cycles,
                dram_bytes: 0,
            }],
            regions_scanned: 4,
            regions_pruned: 0,
            energy: EnergyBreakdown::default(),
            core: CoreStats::default(),
            cache: None,
            engine: None,
            hmc: HmcStats::default(),
        }
    }

    #[test]
    fn speedup_and_selectivity() {
        let a = dummy(Arch::HostX86, 1000, 2);
        let b = dummy(Arch::Hipe, 250, 2);
        assert_eq!(b.speedup_over(&a), 4.0);
        assert_eq!(a.selectivity(), 0.02);
    }

    #[test]
    fn empty_table_selectivity_is_zero_not_nan() {
        // Regression: an all-empty bitmask (zero rows) must not divide
        // by zero — selectivity is defined as 0.0 and the Display
        // percentage stays finite.
        let mut r = dummy(Arch::Hipe, 10, 0);
        r.result.bitmask = Bitmask::zeros(0);
        assert_eq!(r.selectivity(), 0.0);
        assert!(!r.selectivity().is_nan());
        assert!(r.to_string().contains("(0.00 %)"), "display: {r}");
    }

    #[test]
    fn fully_pruned_run_has_finite_selectivity_and_shows_prune_counts() {
        // Regression: a run whose every region was pruned still has a
        // row-sized (all-zero) bitmask, so selectivity is an ordinary
        // 0/len division — finite, no NaN — and Display reports the
        // zone-map counters.
        let mut r = dummy(Arch::Hipe, 10, 0);
        r.regions_scanned = 0;
        r.regions_pruned = 4;
        assert_eq!(r.selectivity(), 0.0);
        assert!(!r.selectivity().is_nan());
        let s = r.to_string();
        assert!(s.contains("(0.00 %)"), "display: {s}");
        assert!(
            s.contains("[zonemap: 0 regions scanned, 4 pruned]"),
            "display: {s}"
        );
    }

    #[test]
    fn unpruned_runs_keep_the_historical_display_form() {
        let r = dummy(Arch::Hipe, 10, 2);
        assert!(!r.to_string().contains("zonemap"), "display: {r}");
    }

    #[test]
    fn display_mentions_arch() {
        let r = dummy(Arch::Hive, 10, 0);
        assert!(r.to_string().starts_with("HIVE:"));
        assert_eq!(Arch::HmcIsa.to_string(), "HMC-ISA");
    }

    #[test]
    fn display_appends_per_partition_scan_ends() {
        let mut r = dummy(Arch::Hipe, 100, 0);
        // A single partition keeps the historical one-line form.
        assert!(!r.to_string().contains("engines"));
        r.partitions = (0..4)
            .map(|p| PartitionPhase {
                partition: p,
                first_vault: p * 8,
                vaults: 8,
                instructions: 10,
                dispatch: 5,
                scan: 20 + p as u64,
                dram_bytes: 0,
            })
            .collect();
        let s = r.to_string();
        assert!(s.contains("[4 engines: scan 20/21/22/23]"), "display: {s}");
    }

    /// A HIPE-shaped report with three partitions scanning to 40, 90
    /// and 60 cycles, 256 DRAM bytes each.
    fn three_partition_run() -> RunReport {
        let mut r = dummy(Arch::Hipe, 100, 2);
        r.engine = Some(EngineStats::default());
        r.partitions = (0..3)
            .map(|p| PartitionPhase {
                scan: [40, 90, 60][p],
                dram_bytes: 256,
                ..r.partitions[0]
            })
            .collect();
        r
    }

    #[test]
    fn metrics_are_name_ordered() {
        let r = three_partition_run();
        let Value::Object(members) = r.metrics() else {
            panic!("metrics are an object");
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert!(names.contains(&"engine.squashed") && !names.contains(&"cache.accesses"));
    }

    #[test]
    fn metrics_summarize_partition_scans() {
        let text = hipe_trace::json::write(&three_partition_run().metrics());
        assert!(text.contains("\"partition.dram_bytes\": 768"), "{text}");
        assert!(
            text.contains(
                "\"partition.scan_cyc\": {\"count\": 3, \"sum\": 190, \"min\": 40, \"max\": 90}"
            ),
            "{text}"
        );
        // A skipped sub-query has no partitions, so no partition metrics.
        let skipped = RunReport::skipped(Arch::Hipe, 64, 2, false).metrics();
        assert!(skipped.get("partition.scan_cyc").is_none());
        assert_eq!(skipped.get("zonemap.regions_pruned"), Some(&2usize.into()));
    }

    #[test]
    fn all_archs_are_distinct_labels() {
        let labels: Vec<String> = Arch::ALL.iter().map(Arch::to_string).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), 4);
        assert_eq!(labels, dedup);
    }
}
