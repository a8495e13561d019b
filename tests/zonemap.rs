//! Zone-map pruning equivalence: pruned runs must be bit-identical to
//! unpruned runs and to the reference executor, on every machine.
//!
//! Pruning removes timed *and* functional work: executors evaluate or
//! read back only the plan's scanned regions. A simulating run gets a
//! cube of its own, so a pruned region's mask words and aggregate
//! lanes are never written and read 0 — which is what the full scan
//! would have stored for a region with no matches. These tests sweep
//! randomized predicates, boundary predicates sitting exactly on
//! region summaries, partitioned and sharded/replicated layouts,
//! fully-pruned queries, and interleaved runs whose output blocks
//! differ run to run, asserting the equivalence everywhere: no run
//! leaves state behind for the next. The "warm" side runs on the
//! system under test, the "cold" side on a second system with the
//! same configuration: a system replays the timing of runs it has
//! simulated.

use hipe::{Arch, RunReport, System, SystemConfig, TableShape};
use hipe_db::{scan, CmpOp, Column, ColumnPredicate, Query, SplitMix64};
use hipe_serve::{Cluster, ClusterConfig};

const SEED: u64 = 2018;

/// A shipdate-clustered system (the shape under which zone maps have
/// teeth), with pruning on or off.
fn clustered(rows: usize, partitions: usize, pruning: bool) -> System {
    let mut cfg = SystemConfig::paper(rows, SEED);
    cfg.partitions = partitions;
    cfg.shape = TableShape::ClusteredShipdate { total_rows: rows };
    cfg.pruning = pruning;
    System::with_config(cfg)
}

/// Draws a random conjunctive query: a shipdate window (the prunable
/// predicate on a clustered table) optionally joined by quantity and
/// discount predicates, optionally aggregating.
fn random_query(rng: &mut SplitMix64) -> Query {
    let lo = rng.range_i64(0, 2556);
    let hi = (lo + rng.range_i64(0, 400)).min(2556);
    let mut preds = vec![ColumnPredicate::new(Column::Shipdate, CmpOp::Range(lo, hi))];
    if rng.below(2) == 0 {
        preds.push(ColumnPredicate::new(
            Column::Quantity,
            CmpOp::Lt(rng.range_i64(2, 50)),
        ));
    }
    if rng.below(3) == 0 {
        preds.push(ColumnPredicate::new(
            Column::Discount,
            CmpOp::Ge(rng.range_i64(0, 10)),
        ));
    }
    Query::new(preds, rng.below(2) == 0)
}

/// A second system configured like `sys`: its runs are cold, with no
/// timing `sys` recorded to replay.
fn twin(sys: &System) -> System {
    System::with_config(sys.config().clone())
}

/// Runs `query` pruned and unpruned on `arch`, warm and cold (on
/// `cold`, a [`twin`] of the pruned system), and asserts the results
/// bit-identical to the reference executor. Returns the warm pruned
/// run's pruned-region count.
fn assert_equivalent(
    pruned: &mut hipe::Session<'_>,
    full: &mut hipe::Session<'_>,
    cold: &System,
    arch: Arch,
    query: &Query,
) -> usize {
    let reference = scan::reference(pruned.system().table(), query);
    let warm_pruned = pruned.run(arch, query);
    let warm_full = full.run(arch, query);
    assert_eq!(warm_pruned.result, reference, "{arch} pruned vs reference");
    assert_eq!(warm_full.result, reference, "{arch} unpruned vs reference");
    assert_eq!(warm_full.regions_pruned, 0, "{arch} unpruned run pruned");
    // Cold runs repeat the equivalence from a fresh materialization.
    let cold_pruned = cold.run(arch, query);
    assert_eq!(cold_pruned.result, reference, "{arch} cold pruned");
    assert_eq!(
        cold_pruned.regions_pruned, warm_pruned.regions_pruned,
        "{arch} cold and warm runs must prune identically"
    );
    // Pruning never adds cycles: dead regions only remove timed work.
    assert!(
        warm_pruned.cycles <= warm_full.cycles,
        "{arch}: pruned {} cycles > unpruned {}",
        warm_pruned.cycles,
        warm_full.cycles
    );
    warm_pruned.regions_pruned
}

#[test]
fn randomized_predicates_prune_bit_identically_on_all_archs() {
    let rows = 2048;
    let pruned_sys = clustered(rows, 1, true);
    let full_sys = clustered(rows, 1, false);
    let cold = twin(&pruned_sys);
    let mut pruned_sessions: Vec<_> = Arch::ALL.iter().map(|_| pruned_sys.session()).collect();
    let mut full_sessions: Vec<_> = Arch::ALL.iter().map(|_| full_sys.session()).collect();
    let mut rng = SplitMix64::new(0x5EED_207E);
    let mut regions_pruned = 0;
    for _ in 0..10 {
        let query = random_query(&mut rng);
        for (i, &arch) in Arch::ALL.iter().enumerate() {
            regions_pruned += assert_equivalent(
                &mut pruned_sessions[i],
                &mut full_sessions[i],
                &cold,
                arch,
                &query,
            );
        }
    }
    assert!(
        regions_pruned > 0,
        "the sweep never exercised pruning — widen the predicate pool"
    );
}

#[test]
fn boundary_predicates_at_region_summaries_survive_pruning() {
    let rows = 1024;
    let pruned_sys = clustered(rows, 1, true);
    let full_sys = clustered(rows, 1, false);
    let cold = twin(&pruned_sys);
    // Predicates sitting exactly on a mid-table region's min and max:
    // the region must survive (and the answer stay exact) in every
    // boundary case, and the open sides must prune it.
    let zm = pruned_sys.prune().expect("a pruned system");
    let r = zm.regions() / 2;
    let (min, max) = (
        zm.region(r).min(Column::Shipdate),
        zm.region(r).max(Column::Shipdate),
    );
    let cases = [
        CmpOp::Eq(min),
        CmpOp::Eq(max),
        CmpOp::Range(min, min),
        CmpOp::Range(max, max),
        CmpOp::Range(min, max),
        CmpOp::Le(min),
        CmpOp::Ge(max),
        CmpOp::Lt(min), // prunes region r itself
        CmpOp::Gt(max), // prunes region r itself
    ];
    for cmp in cases {
        let query = Query::new(vec![ColumnPredicate::new(Column::Shipdate, cmp)], false);
        let mut pruned = pruned_sys.session();
        let mut full = full_sys.session();
        for arch in Arch::ALL {
            let _ = assert_equivalent(&mut pruned, &mut full, &cold, arch, &query);
        }
    }
}

#[test]
fn partitioned_layouts_prune_bit_identically() {
    // Regions straddling partition edges: the narrow window selects
    // rows on both sides of the 2- and 4-way vault-group splits.
    let rows = 4096;
    for partitions in [2, 4] {
        let pruned_sys = clustered(rows, partitions, true);
        let full_sys = clustered(rows, partitions, false);
        let cold = twin(&pruned_sys);
        for permille in [10, 30, 100] {
            let query = Query::shipdate_window_permille(permille).with_aggregate();
            let mut pruned = pruned_sys.session();
            let mut full = full_sys.session();
            for arch in Arch::ALL {
                let n = assert_equivalent(&mut pruned, &mut full, &cold, arch, &query);
                assert!(n > 0, "{arch} pruned nothing at {permille} permille");
            }
        }
    }
}

#[test]
fn fully_pruned_queries_run_to_exact_zero_answers() {
    // Individually satisfiable, jointly empty: no region's shipdate
    // interval can have max >= 2000 and min < 100 at once on a
    // clustered table, so every region prunes — the empty-program
    // contract end to end.
    let rows = 1024;
    let pruned_sys = clustered(rows, 1, true);
    let full_sys = clustered(rows, 1, false);
    let cold = twin(&pruned_sys);
    for aggregate in [false, true] {
        let query = Query::new(
            vec![
                ColumnPredicate::new(Column::Shipdate, CmpOp::Ge(2000)),
                ColumnPredicate::new(Column::Shipdate, CmpOp::Lt(100)),
            ],
            aggregate,
        );
        let mut pruned = pruned_sys.session();
        let mut full = full_sys.session();
        for arch in Arch::ALL {
            let _ = assert_equivalent(&mut pruned, &mut full, &cold, arch, &query);
            let report = pruned.run(arch, &query);
            assert_eq!(report.result.matches, 0, "{arch}");
            assert_eq!(report.regions_scanned, 0, "{arch}");
            assert_eq!(report.regions_pruned, rows / 32, "{arch}");
            assert_eq!(
                report.result.aggregate,
                aggregate.then_some(0),
                "{arch} fully-pruned aggregate must be the exact zero sum"
            );
            assert_eq!(report.selectivity(), 0.0, "{arch}");
            assert!(!report.selectivity().is_nan(), "{arch}");
        }
    }
}

/// Asserts two reports identical in every field: answer, cycles,
/// phases, partitions, component stats and energy.
fn assert_same_report(warm: &RunReport, cold: &RunReport, what: &str) {
    assert_eq!(warm.result, cold.result, "{what}: answer differs");
    assert_eq!(warm.cycles, cold.cycles, "{what}: cycles differ");
    assert_eq!(
        format!("{warm:?}"),
        format!("{cold:?}"),
        "{what}: reports differ"
    );
}

#[test]
fn interleaved_warm_runs_leave_no_residue() {
    // Consecutive runs write different output blocks (see
    // `residue_queries`). Each simulating run writes a cube of its
    // own, so every warm run must still equal a cold one — arch by
    // arch, then query by query on a second session opened while the
    // first is still live.
    let rows = 4096;
    let queries = residue_queries();
    for partitions in [1, 4] {
        let sys = clustered(rows, partitions, true);
        let cold = twin(&sys);
        let check = |session: &mut hipe::Session<'_>, arch: Arch, q: &Query, round: &str| {
            let what = format!("{arch} x{partitions} {round} [{q}]");
            assert_same_report(&session.run(arch, q), &cold.run(arch, q), &what);
        };
        let mut first = sys.session();
        for arch in Arch::ALL {
            for q in &queries {
                check(&mut first, arch, q, "warm");
            }
        }
        let mut second = sys.session();
        for q in &queries {
            for arch in Arch::ALL {
                check(&mut second, arch, q, "second session");
            }
        }
        check(&mut first, Arch::Hipe, &queries[0], "first session, again");
    }
}

#[test]
fn runs_interleaved_across_two_live_sessions_match_cold_runs() {
    // Two sessions over one system share its column buffer; each owns
    // its output area. Alternating runs between them, each on a
    // different query, must leave no trace in the other.
    let queries = residue_queries();
    for partitions in [1, 4] {
        let sys = clustered(4096, partitions, true);
        let cold = twin(&sys);
        let (mut a, mut b) = (sys.session(), sys.session());
        for arch in Arch::ALL {
            for (qa, qb) in queries.iter().zip(queries.iter().rev()) {
                for (name, session, q) in [("a", &mut a, qa), ("b", &mut b, qb)] {
                    let what = format!("{arch} x{partitions} session {name} [{q}]");
                    assert_same_report(&session.run(arch, q), &cold.run(arch, q), &what);
                }
            }
        }
    }
}

/// Queries whose consecutive runs write different output blocks: wide
/// and narrow windows scan different regions; the selective query
/// makes HIPE squash the mask stores of regions the wide window filled
/// with ones (each conjunct has a hit in such a region, so the zone map
/// keeps it); the fully pruned query writes nothing; the host machines
/// store packed words where the logic machines store 256 B chunks; and
/// the aggregate adds partial-sum rows.
fn residue_queries() -> [Query; 5] {
    let wide = Query::shipdate_window_permille(300);
    let q6 = Query::q6();
    let narrow_q6 = vec![
        Query::shipdate_window_permille(30).predicates()[0],
        q6.predicates()[1],
        q6.predicates()[2],
    ];
    [
        wide.clone(),
        Query::new(
            vec![
                wide.predicates()[0],
                ColumnPredicate::new(Column::Quantity, CmpOp::Lt(3)),
                ColumnPredicate::new(Column::Discount, CmpOp::Ge(9)),
            ],
            false,
        ),
        Query::shipdate_window_permille(10),
        Query::new(
            vec![
                ColumnPredicate::new(Column::Shipdate, CmpOp::Ge(2000)),
                ColumnPredicate::new(Column::Shipdate, CmpOp::Lt(100)),
            ],
            false,
        ),
        Query::new(narrow_q6, true),
    ]
}

#[test]
fn sharded_and_replicated_clusters_skip_without_changing_answers() {
    // The window straddles the shard-0/shard-1 boundary of the 4-shard
    // split (day ~639 at row 1024 of 4096), so skipping must keep
    // partially-matching edge shards while dropping the rest.
    let rows = 4096;
    let straddle = Query::new(
        vec![ColumnPredicate::new(
            Column::Shipdate,
            CmpOp::Range(600, 680),
        )],
        true,
    );
    let narrow = Query::shipdate_window_permille(30);
    let mono = clustered(rows, 1, false);
    for query in [&straddle, &narrow] {
        let reference = scan::reference(mono.table(), query);
        assert!(reference.matches > 0, "test query selects nothing");
        for shards in [1, 2, 4] {
            for replicas in [1, 2] {
                let cfg = ClusterConfig {
                    replicas,
                    ..ClusterConfig::skipping(rows, SEED, shards)
                };
                let cluster = Cluster::with_config(cfg);
                for arch in Arch::ALL {
                    let report = cluster.run(arch, query);
                    assert_eq!(
                        report.result, reference,
                        "{arch} x{shards} shards x{replicas} replicas"
                    );
                }
                // The narrow window fits inside one shard of the
                // 4-way split: at least two shards must be skipped.
                if shards == 4 && std::ptr::eq(query, &narrow) {
                    let report = cluster.run(Arch::Hipe, query);
                    assert!(report.shards_skipped() >= 2, "skipped {:?}", report.skipped);
                }
            }
        }
    }
}

#[test]
fn a_shard_pruned_entirely_by_its_rollup_answers_zero() {
    // Shard 3 of the 4-way clustered split holds days ~1917..2556; a
    // window below that is pruned by its table rollup before any
    // region-level work, and the cluster answer is still exact.
    let rows = 4096;
    let cluster = Cluster::with_config(ClusterConfig::skipping(rows, SEED, 4));
    let query = Query::shipdate_window_permille(100); // days 731..986
    let report = cluster.run(Arch::Hipe, &query);
    assert!(report.skipped[3], "late shard must be rollup-skipped");
    let late = &report.shard_reports[3];
    assert_eq!(late.cycles, 0);
    assert_eq!(late.result.matches, 0);
    assert_eq!(late.regions_scanned, 0);
    assert_eq!(late.regions_pruned, cluster.shard(3).layout().regions());
    let mono = clustered(rows, 1, false);
    assert_eq!(report.result, scan::reference(mono.table(), &query));
}
