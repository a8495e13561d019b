//! Cross-crate integration tests of partitioned execution: N
//! vault-group engines scanning one table concurrently.
//!
//! The contract under test, layer by layer:
//!
//! 1. **Figures preserved** — a `partitions: 1` system is the paper's
//!    machine: identical results, cycles, phases, stats and energy to
//!    the default configuration, for every architecture.
//! 2. **Correctness under partitioning** — with any partition count,
//!    all four machines stay bit-identical to the reference executor
//!    (the union of the per-partition masks *is* the single-engine
//!    mask), across selectivities, row counts on region/partition
//!    edges, and empty partitions.
//! 3. **Warm == cold** — no run leaves the cluster's per-vault-group
//!    state behind for the next.
//! 4. **The point of it all** — at `partitions: 4` the HIVE/HIPE Q6
//!    scan phase is >= 2.5x faster than single-engine, and per-engine
//!    DRAM traffic stays inside each engine's own vault group.

use hipe::{Arch, RunReport, System};
use hipe_db::{scan, Query};

const ROWS: usize = 16_384;
const SEED: u64 = 2018;

/// Full-fidelity comparison of two reports.
fn assert_same_report(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.result, b.result, "{what}: scan result differs");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles differ");
    assert_eq!(a.phases, b.phases, "{what}: phase breakdown differs");
    assert_eq!(a.partitions, b.partitions, "{what}: partitions differ");
    assert_eq!(a.hmc, b.hmc, "{what}: cube stats differ");
    assert_eq!(a.engine, b.engine, "{what}: engine stats differ");
    assert_eq!(
        a.energy.total_pj(),
        b.energy.total_pj(),
        "{what}: energy differs"
    );
}

#[test]
fn one_partition_reproduces_the_default_figures_exactly() {
    // `partitions: 1` must leave every existing cycle/energy figure
    // unchanged: same layout, same programs, same measurements.
    let default = System::new(4096, SEED);
    let single = System::partitioned(4096, SEED, 1);
    let queries = [
        Query::q6(),
        Query::quantity_below_permille(30),
        Query::quantity_below_permille(1000),
    ];
    let mut a = default.session();
    let mut b = single.session();
    for q in &queries {
        for arch in Arch::ALL {
            assert_same_report(
                &a.run(arch, q),
                &b.run(arch, q),
                &format!("{arch} on [{q}]"),
            );
        }
    }
}

#[test]
fn all_architectures_agree_with_the_reference_under_partitioning() {
    for partitions in [2, 4, 8] {
        let sys = System::partitioned(ROWS, SEED, partitions);
        let q = Query::q6();
        let reference = scan::reference(sys.table(), &q);
        let mut session = sys.session();
        for arch in Arch::ALL {
            let report = session.run(arch, &q);
            assert_eq!(
                report.result, reference,
                "{arch} diverged at {partitions} partitions"
            );
        }
        assert_eq!(sys.materializations(), 1);
    }
}

#[test]
fn partition_mask_union_is_bit_identical_across_the_selectivity_sweep() {
    // Property: each partition writes only its own regions' masks, so
    // the assembled bitmask must equal both the single-engine mask and
    // the reference — at every selectivity, on both logic machines.
    let single = System::new(8192, SEED);
    let quad = System::partitioned(8192, SEED, 4);
    let mut s1 = single.session();
    let mut s4 = quad.session();
    for permille in [0, 20, 100, 500, 1000] {
        let q = Query::quantity_below_permille(permille);
        let reference = scan::reference(single.table(), &q);
        for arch in [Arch::Hive, Arch::Hipe] {
            let one = s1.run(arch, &q);
            let four = s4.run(arch, &q);
            assert_eq!(
                four.result.bitmask, one.result.bitmask,
                "{arch} at {permille} permille: partition union != single mask"
            );
            assert_eq!(four.result, reference, "{arch} at {permille} permille");
        }
    }
}

#[test]
fn rows_on_region_and_partition_edges_are_exact() {
    // Row counts sitting exactly on 32-row region edges, one off them,
    // and on whole vault-sweep (1024-row) partition edges.
    for rows in [1, 31, 32, 33, 1023, 1024, 1025, 2048, 4097] {
        for partitions in [2, 4, 8] {
            let sys = System::partitioned(rows, 7, partitions);
            let q = Query::quantity_below_permille(500);
            let reference = scan::reference(sys.table(), &q);
            let mut session = sys.session();
            for arch in Arch::ALL {
                let report = session.run(arch, &q);
                assert_eq!(
                    report.result, reference,
                    "{arch} wrong at rows={rows} partitions={partitions}"
                );
                assert_eq!(report.result.bitmask.len(), rows);
            }
        }
    }
}

#[test]
fn empty_partitions_are_harmless_and_idle() {
    // 64 rows = 2 regions: with 8 partitions only partition 0's vault
    // group holds data; the other seven engines must stay idle and the
    // result must still be exact — including a fused aggregate.
    let sys = System::partitioned(64, 9, 8);
    let mut session = sys.session();
    for q in [Query::quantity_below_permille(500), Query::q6()] {
        let reference = scan::reference(sys.table(), &q);
        for arch in Arch::ALL {
            assert_eq!(session.run(arch, &q).result, reference, "{arch} on [{q}]");
        }
        let hipe = session.run(Arch::Hipe, &q);
        assert_eq!(hipe.partitions.len(), 8);
        assert!(hipe.partitions[0].instructions > 0);
        for p in &hipe.partitions[1..] {
            assert_eq!(
                (p.instructions, p.scan, p.dram_bytes),
                (0, 0, 0),
                "partition {} not idle on [{q}]",
                p.partition
            );
        }
    }
}

#[test]
fn warm_partitioned_sessions_replay_cold_runs_exactly() {
    // Regression under partitions > 1: each simulating run starts from
    // zero per-vault-group accounting (and everything else), so warm ==
    // cold measurement for measurement.
    let sys = System::partitioned(8192, 77, 4);
    let q = Query::q6();
    let mut session = sys.session();
    let first = session.run(Arch::Hipe, &q);
    // A different query in between must leave no residue.
    session.run(Arch::Hive, &Query::quantity_below_permille(100));
    let second = session.run(Arch::Hipe, &q);
    let cold = sys.run(Arch::Hipe, &q);
    assert_same_report(&first, &second, "warm replay");
    assert_same_report(&first, &cold, "cold run");
    // The per-partition breakdown is live data, not zeros.
    assert!(first.partitions.iter().all(|p| p.dram_bytes > 0));
}

#[test]
fn four_engines_speed_the_q6_scan_phase_by_at_least_2_5x() {
    // The acceptance experiment: partitions: 4 drops the HIVE/HIPE Q6
    // scan phase >= 2.5x below single-engine, results bit-identical.
    let single = System::new(ROWS, SEED);
    let quad = System::partitioned(ROWS, SEED, 4);
    let q = Query::q6();
    for arch in [Arch::Hive, Arch::Hipe] {
        let one = single.run(arch, &q);
        let four = quad.run(arch, &q);
        assert_eq!(one.result, four.result, "{arch} diverged");
        let speedup = one.phases.scan as f64 / four.phases.scan.max(1) as f64;
        assert!(
            speedup >= 2.5,
            "{arch}: scan phase sped up only {speedup:.2}x ({} -> {})",
            one.phases.scan,
            four.phases.scan
        );
        // End-to-end cycles drop too (the readback got slightly
        // bigger, the scan much smaller).
        assert!(four.cycles < one.cycles);
    }
}

#[test]
fn scan_cycles_shrink_monotonically_with_partition_count() {
    let q = Query::q6();
    for arch in [Arch::Hive, Arch::Hipe] {
        let mut prev_scan = u64::MAX;
        let mut prev_cycles = u64::MAX;
        for partitions in [1, 2, 4, 8] {
            let sys = System::partitioned(ROWS, SEED, partitions);
            let r = sys.run(arch, &q);
            assert!(
                r.phases.scan <= prev_scan && r.cycles <= prev_cycles,
                "{arch}: not monotone at {partitions} partitions \
                 (scan {prev_scan} -> {}, cycles {prev_cycles} -> {})",
                r.phases.scan,
                r.cycles
            );
            prev_scan = r.phases.scan;
            prev_cycles = r.cycles;
        }
    }
}

#[test]
fn engines_work_only_their_own_vault_groups() {
    // During the scan phase each engine's DRAM traffic stays inside
    // its own vault group, and the groups are loaded evenly on a
    // uniform table (the per-partition report carries the accounting).
    let sys = System::partitioned(ROWS, SEED, 4);
    let report = sys.run(Arch::Hive, &Query::quantity_below_permille(500));
    assert_eq!(report.partitions.len(), 4);
    let bytes: Vec<u64> = report.partitions.iter().map(|p| p.dram_bytes).collect();
    let (min, max) = (
        *bytes.iter().min().expect("four partitions"),
        *bytes.iter().max().expect("four partitions"),
    );
    assert!(min > 0, "an engine moved no data: {bytes:?}");
    // Uniform data, equal region counts: within a few percent.
    assert!(max - min < max / 10, "unbalanced groups: {bytes:?}");
    // Every engine dispatched the same instruction count and finished
    // within the overall scan phase.
    for p in &report.partitions {
        assert_eq!(p.instructions, report.partitions[0].instructions);
        assert!(p.scan <= report.phases.scan);
    }
}

#[test]
fn fused_aggregates_stay_exact_under_partitioning() {
    // The partitioned aggregate re-groups partials by each engine's
    // local region order; the combined sum must still be bit-identical
    // to the reference and to the host-gather machines.
    for partitions in [2, 4, 8] {
        let sys = System::partitioned(10_000, SEED, partitions);
        let mut session = sys.session();
        for permille in [0, 20, 500] {
            let q = Query::quantity_below_permille(permille).with_aggregate();
            let reference = scan::reference(sys.table(), &q);
            for arch in Arch::ALL {
                let report = session.run(arch, &q);
                assert_eq!(
                    report.result, reference,
                    "{arch} at {partitions} partitions, {permille} permille"
                );
            }
        }
    }
}
