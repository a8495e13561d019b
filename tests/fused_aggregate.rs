//! Cross-crate integration tests of the fused near-data aggregate.
//!
//! The paper's headline Q6 number depends on `SUM(l_extendedprice *
//! l_discount)` running *near the data*: on HIVE/HIPE the compiled
//! program multiplies and reduces matched tuples inside the logic
//! layer and deposits one 8 B partial per 32-row region, so the host
//! only reads back and combines compact partials instead of gathering
//! every matched tuple over the serial links. These tests pin down the
//! three properties the driver relies on:
//!
//! 1. the fused sum is *bit-identical* to the reference executor's
//!    (and to the host-gather machines') across the selectivity sweep;
//! 2. warm sessions replay fused runs deterministically, measurement
//!    for measurement;
//! 3. at low (≤ 3 %) selectivity the fused path is strictly cheaper in
//!    cycles than the same machine doing the host-side gather.

use hipe::{Arch, Backend, RunReport, System};
use hipe_db::{scan, Query};

const ROWS: usize = 20_000;
const SEED: u64 = 2018;

/// A Q6-shaped aggregate at a tunable selectivity.
fn aggregate_at(permille: u32) -> Query {
    Query::quantity_below_permille(permille).with_aggregate()
}

/// Runs `query` on a logic-layer machine with the host-side gather
/// instead of the fused tail (the pre-fusion comparison point).
fn run_host_gather(sys: &System, arch: Arch, query: &Query) -> RunReport {
    let plan = match arch {
        Arch::Hive => Backend::Hive {
            fused_aggregate: false,
        },
        Arch::Hipe => Backend::Hipe {
            fused_aggregate: false,
        },
        other => panic!("{other} has no fused/host-gather split"),
    }
    .compile(sys, query)
    .expect("aggregate queries compile");
    assert!(!plan.fused_aggregate());
    sys.session().run_plan(&plan)
}

#[test]
fn four_way_bit_identical_sums_across_the_selectivity_sweep() {
    let sys = System::new(ROWS, SEED);
    let mut session = sys.session();
    let mut queries: Vec<Query> = [0, 20, 100, 500, 1000].map(aggregate_at).to_vec();
    queries.push(Query::q6());
    for q in &queries {
        let reference = scan::reference(sys.table(), q);
        assert!(reference.aggregate.is_some(), "sweep queries aggregate");
        for arch in Arch::ALL {
            let report = session.run(arch, q);
            assert_eq!(
                report.result, reference,
                "{arch} diverged from the reference on [{q}]"
            );
        }
    }
    assert_eq!(sys.materializations(), 1);
}

#[test]
fn fused_and_host_gather_agree_bit_for_bit() {
    let sys = System::new(4096, SEED);
    let q = Query::q6();
    let mut session = sys.session();
    for arch in [Arch::Hive, Arch::Hipe] {
        let fused = session.run(arch, &q);
        let gathered = run_host_gather(&sys, arch, &q);
        assert_eq!(fused.result, gathered.result, "{arch} paths diverged");
        assert!(fused.phases.gather_aggregate > 0);
        assert!(gathered.phases.gather_aggregate > 0);
    }
}

#[test]
fn warm_sessions_replay_fused_aggregates_deterministically() {
    let sys = System::new(8192, 77);
    let q = Query::q6();
    let mut session = sys.session();
    let first = session.run(Arch::Hipe, &q);
    // A different query in between must leave no residue.
    session.run(Arch::Hipe, &aggregate_at(100));
    let second = session.run(Arch::Hipe, &q);
    let cold = sys.run(Arch::Hipe, &q);
    for (label, other) in [("warm replay", &second), ("cold run", &cold)] {
        assert_eq!(first.result, other.result, "{label}: result differs");
        assert_eq!(first.cycles, other.cycles, "{label}: cycles differ");
        assert_eq!(first.phases, other.phases, "{label}: phases differ");
        assert_eq!(first.engine, other.engine, "{label}: engine stats differ");
        assert_eq!(first.hmc, other.hmc, "{label}: cube stats differ");
    }
}

#[test]
fn fused_beats_host_gather_at_low_selectivity() {
    // The acceptance experiment: at <= 3 % selectivity (including Q6's
    // ~1.9 %), running the aggregate inside the logic layer must be
    // strictly cheaper than shipping matched tuples to the host —
    // on HIPE and on HIVE.
    let sys = System::new(ROWS, SEED);
    let mut session = sys.session();
    let mut queries = vec![aggregate_at(20), aggregate_at(30)];
    queries.push(Query::q6());
    for q in &queries {
        for arch in [Arch::Hive, Arch::Hipe] {
            let fused = session.run(arch, q);
            assert!(
                fused.selectivity() <= 0.03,
                "not a low-selectivity point: {}",
                fused.selectivity()
            );
            let gathered = run_host_gather(&sys, arch, q);
            assert_eq!(fused.result, gathered.result);
            assert!(
                fused.cycles < gathered.cycles,
                "fused {arch} ({} cycles) not cheaper than host gather ({} cycles) on [{q}]",
                fused.cycles,
                gathered.cycles,
            );
        }
    }
}

#[test]
fn fused_readback_moves_fewer_link_bytes_than_the_gather() {
    // The mechanism behind the win: partial readback is a few packets,
    // the gather is two uncached round trips per matched tuple.
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let fused = sys.session().run(Arch::Hipe, &q);
    let gathered = run_host_gather(&sys, Arch::Hipe, &q);
    // Compare only the aggregate phase's traffic: subtract the shared
    // scan program dispatch (identical instruction count per region
    // modulo the five-instruction tail, which the fused side pays).
    assert!(
        fused.phases.gather_aggregate < gathered.phases.gather_aggregate,
        "fused readback ({}) not cheaper than per-tuple gather ({})",
        fused.phases.gather_aggregate,
        gathered.phases.gather_aggregate
    );
}
