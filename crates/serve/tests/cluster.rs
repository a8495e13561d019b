//! Shard-boundary and equivalence tests for the sharding layer.

use hipe::{Arch, System};
use hipe_db::scan::reference;
use hipe_db::{LineitemTable, Query};
use hipe_serve::{Cluster, ClusterConfig, MERGE_CYCLES_PER_SHARD};
use std::ops::Range;

const SEED: u64 = 2018;

/// The global row range shard `s` owns: its system's row offset and
/// row count.
fn shard_rows(cluster: &Cluster, s: usize) -> Range<usize> {
    let cfg = cluster.shard(s).config();
    cfg.row_offset..cfg.row_offset + cfg.rows
}

/// A single-shard cluster is the plain `System`: masks, sums and
/// cycles all identical, on every architecture.
#[test]
fn single_shard_cluster_is_the_plain_system() {
    let rows = 1500;
    let cluster = Cluster::new(rows, SEED, 1);
    let sys = System::new(rows, SEED);
    for arch in Arch::ALL {
        let c = cluster.run(arch, &Query::q6());
        let m = sys.run(arch, &Query::q6());
        assert_eq!(c.result, m.result, "{arch}: functional result");
        assert_eq!(c.cycles, m.cycles, "{arch}: cycles");
        assert_eq!(c.shard_reports.len(), 1);
        assert_eq!(c.shard_reports[0].phases, m.phases, "{arch}: phases");
    }
}

/// Multi-shard clusters return bit-identical results to the reference
/// executor across the selectivity sweep on all four architectures.
#[test]
fn cluster_matches_reference_across_selectivity_sweep() {
    let rows = 1200;
    let table = LineitemTable::generate(rows, SEED);
    for shards in [2, 3, 4] {
        let cluster = Cluster::new(rows, SEED, shards);
        let mut session = cluster.session();
        for pm in [0, 20, 100, 500, 1000] {
            for query in [
                Query::quantity_below_permille(pm),
                Query::quantity_below_permille(pm).with_aggregate(),
            ] {
                let expect = reference(&table, &query);
                for arch in Arch::ALL {
                    let got = session.run(arch, &query);
                    assert_eq!(got.result, expect, "{shards} shards, {arch}, permille {pm}");
                }
            }
        }
        // The whole sweep reused the per-shard materializations.
        assert_eq!(cluster.materializations(), shards as u64);
    }
}

/// Q6 agrees bit for bit between a 2-shard cluster and the monolithic
/// system — including the aggregate partial-sum combine.
#[test]
fn two_shard_q6_equals_monolithic() {
    let rows = 2048;
    let cluster = Cluster::new(rows, SEED, 2);
    let mono = System::new(rows, SEED);
    for arch in Arch::ALL {
        let c = cluster.run(arch, &Query::q6());
        let m = mono.run(arch, &Query::q6());
        assert_eq!(c.result, m.result, "{arch}");
        assert!(c.result.aggregate.is_some());
    }
}

/// Rows sitting exactly on shard edges land in exactly one shard and
/// match the monolithic mask bit by bit around every boundary.
#[test]
fn shard_edge_rows_are_owned_exactly_once() {
    // 1000 rows over 3 shards: bounds at 334 and 667 — neither is a
    // region (32-row) or word (64-bit) boundary.
    let rows = 1000;
    let cluster = Cluster::new(rows, SEED, 3);
    assert_eq!(shard_rows(&cluster, 0), 0..334);
    assert_eq!(shard_rows(&cluster, 1), 334..667);
    assert_eq!(shard_rows(&cluster, 2), 667..1000);
    let q = Query::quantity_below_permille(500);
    let got = cluster.run(Arch::Hipe, &q);
    let table = LineitemTable::generate(rows, SEED);
    let expect = reference(&table, &q);
    for boundary in [334usize, 667] {
        for i in boundary.saturating_sub(2)..(boundary + 2).min(rows) {
            assert_eq!(
                got.result.bitmask.get(i),
                expect.bitmask.get(i),
                "row {i} at shard boundary {boundary}"
            );
        }
    }
    assert_eq!(got.result, expect);
}

/// A shard smaller than one 32-row region still answers correctly.
#[test]
fn shard_smaller_than_one_region() {
    // 40 rows over 4 shards: every shard has 10 rows, under one
    // 32-row region.
    let rows = 40;
    let cluster = Cluster::new(rows, SEED, 4);
    for s in 0..4 {
        assert!(shard_rows(&cluster, s).len() < 32);
    }
    let table = LineitemTable::generate(rows, SEED);
    for arch in Arch::ALL {
        for query in [Query::q6(), Query::quantity_below_permille(500)] {
            let got = cluster.run(arch, &query);
            assert_eq!(got.result, reference(&table, &query), "{arch} {query}");
        }
    }
}

/// The uneven remainder split (rows % shards != 0) stays exhaustive
/// and disjoint, and results still match.
#[test]
fn uneven_splits_cover_every_row() {
    for (rows, shards) in [(33, 2), (65, 4), (100, 7), (129, 8)] {
        let cluster = Cluster::new(rows, SEED, shards);
        let mut covered = 0;
        for s in 0..shards {
            let range = shard_rows(&cluster, s);
            assert_eq!(range.start, covered, "rows={rows} shards={shards}");
            covered = range.end;
            assert_eq!(cluster.shard(s).table().rows(), range.len());
        }
        assert_eq!(covered, rows);
        let table = LineitemTable::generate(rows, SEED);
        let q = Query::q6();
        let got = cluster.run(Arch::Hipe, &q);
        assert_eq!(
            got.result,
            reference(&table, &q),
            "rows={rows} shards={shards}"
        );
    }
}

/// Shards partitioned internally (engines per cube) keep equivalence.
#[test]
fn partitioned_shards_match_monolithic() {
    let rows = 4096;
    let cluster = Cluster::with_config(ClusterConfig {
        partitions: 4,
        ..ClusterConfig::new(rows, SEED, 2)
    });
    let mono = System::new(rows, SEED);
    for arch in [Arch::Hive, Arch::Hipe] {
        let c = cluster.run(arch, &Query::q6());
        let m = mono.run(arch, &Query::q6());
        assert_eq!(c.result, m.result, "{arch}");
        assert_eq!(c.shard_reports[0].partitions.len(), 4);
    }
}

/// Compiled plans are cached per shard session: re-running the same
/// query batch compiles nothing new, and distinct queries compile
/// once each.
#[test]
fn batch_loops_compile_once_per_distinct_query() {
    let cluster = Cluster::new(512, SEED, 2);
    let mut session = cluster.session();
    let q6 = Query::q6();
    let scan = Query::quantity_below_permille(100);
    assert_eq!(cluster.compilations(), 0);
    let first = session.run(Arch::Hipe, &q6);
    assert_eq!(cluster.compilations(), 2); // one per shard
    for _ in 0..5 {
        let again = session.run(Arch::Hipe, &q6);
        assert_eq!(again.result, first.result);
    }
    assert_eq!(cluster.compilations(), 2, "reruns must not recompile");
    let _ = session.run(Arch::Hipe, &scan);
    assert_eq!(
        cluster.compilations(),
        4,
        "a new query compiles once per shard"
    );
    let _ = session.run(Arch::Hive, &q6);
    assert_eq!(
        cluster.compilations(),
        6,
        "a new arch compiles once per shard"
    );
    assert_eq!(cluster.materializations(), 2, "the whole batch stayed warm");
}

/// Cluster cycles are the slowest shard plus the merge term.
#[test]
fn cluster_cycles_are_slowest_shard_plus_merge() {
    let cluster = Cluster::new(1024, SEED, 4);
    let report = cluster.run(Arch::Hipe, &Query::q6());
    let slowest = report.shard_reports.iter().map(|r| r.cycles).max().unwrap();
    // Q6 prunes nothing here, so all four shards answer.
    assert_eq!(report.cycles, slowest + 3 * MERGE_CYCLES_PER_SHARD);
}

/// A cluster run's own counts: its merged cycles and the shards its
/// scatter path skipped.
#[test]
fn cluster_metrics_count_cycles_and_skipped_shards() {
    let rows = 4096;
    let query = Query::shipdate_window_permille(30);
    let skipping = Cluster::with_config(ClusterConfig::skipping(rows, SEED, 4));
    let report = skipping.run(Arch::Hipe, &query);
    assert!(report.shards_skipped() > 0);
    let text = hipe_trace::json::write(&report.metrics());
    let expect = format!(
        "{{\"cycles\": {}, \"serve.shards_skipped\": {}}}\n",
        report.cycles,
        report.shards_skipped()
    );
    assert_eq!(text, expect);
}
