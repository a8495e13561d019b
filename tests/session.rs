//! Integration tests of the compile → session → execute API.
//!
//! The contract under test: one [`hipe::Session`] executes whole
//! batches (one materialization, counted per session), and no run
//! leaves state behind — a session holds no cube, and a run that
//! simulates does so on a cube of its own — so every run in a batch is
//! bit- and cycle-identical to a cold run, and batches are
//! deterministic and independent of execution order. A system replays
//! the timing of a run it has already simulated, so the cold side is a
//! run on a second system with the same configuration (`cold_run`),
//! never `sys.run` on the system under test.

use hipe::{Arch, RunReport, System, SystemConfig, TableShape};
use hipe_db::Query;
use std::panic::{catch_unwind, AssertUnwindSafe};

const ROWS: usize = 8192;
const SEED: u64 = 2024;

/// Queries exercising aggregate + multi-predicate, single-predicate,
/// empty and full scans.
fn workload() -> Vec<Query> {
    vec![
        Query::q6(),
        Query::quantity_below_permille(30),
        Query::quantity_below_permille(500),
        Query::quantity_below_permille(0),
        Query::quantity_below_permille(1000),
    ]
}

/// Full-fidelity comparison of two reports (results, timing, phase
/// breakdown, stats and energy).
fn assert_same_report(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.arch, b.arch, "{what}: arch differs");
    assert_eq!(a.result, b.result, "{what}: scan result differs");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles differ");
    assert_eq!(a.phases, b.phases, "{what}: phase breakdown differs");
    assert_eq!(a.partitions, b.partitions, "{what}: partitions differ");
    assert_eq!(a.hmc, b.hmc, "{what}: cube stats differ");
    assert_eq!(a.core, b.core, "{what}: core stats differ");
    assert_eq!(a.cache, b.cache, "{what}: cache stats differ");
    assert_eq!(a.engine, b.engine, "{what}: engine stats differ");
    assert_eq!(
        a.energy.total_pj(),
        b.energy.total_pj(),
        "{what}: energy differs"
    );
}

/// `query` on `arch` on a cold cube of a new system configured like
/// `sys`, so no timing `sys` recorded can replay into it.
fn cold_run(sys: &System, arch: Arch, query: &Query) -> RunReport {
    System::with_config(sys.config().clone()).run(arch, query)
}

#[test]
fn warm_batches_match_cold_runs_on_every_arch() {
    let sys = System::new(ROWS, SEED);
    let queries = workload();
    let mut session = sys.session();
    for arch in Arch::ALL {
        let warm: Vec<_> = queries.iter().map(|q| session.run(arch, q)).collect();
        for (q, w) in queries.iter().zip(&warm) {
            let cold = cold_run(&sys, arch, q);
            assert_same_report(w, &cold, &format!("{arch} on [{q}]"));
        }
    }
}

#[test]
fn a_batch_materializes_the_table_exactly_once() {
    let sys = System::new(ROWS, SEED);
    let mut session = sys.session();
    assert_eq!(sys.materializations(), 1);
    for arch in Arch::ALL {
        for q in &workload() {
            session.run(arch, q);
        }
    }
    assert_eq!(
        sys.materializations(),
        1,
        "a warm batch re-materialized the table image"
    );
}

#[test]
fn compare_shares_one_materialization_with_unchanged_reports() {
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let mut session = sys.session();
    let base = session.run(Arch::HostX86, &q);
    let hipe = session.run(Arch::Hipe, &q);
    assert_eq!(sys.materializations(), 1, "compare re-materialized");
    // The shared-session reports equal dedicated cold runs.
    assert_same_report(&base, &cold_run(&sys, Arch::HostX86, &q), "compare/x86");
    assert_same_report(&hipe, &cold_run(&sys, Arch::Hipe, &q), "compare/HIPE");
}

#[test]
fn repeated_batches_are_deterministic() {
    // Property: running the same batch twice on the same session (and
    // on a fresh session) yields identical reports, measurement for
    // measurement.
    let sys = System::new(ROWS, SEED);
    let queries = workload();
    let mut session = sys.session();
    let first: Vec<_> = queries.iter().map(|q| session.run(Arch::Hipe, q)).collect();
    let second: Vec<_> = queries.iter().map(|q| session.run(Arch::Hipe, q)).collect();
    let mut fresh_session = sys.session();
    let fresh: Vec<_> = queries
        .iter()
        .map(|q| fresh_session.run(Arch::Hipe, q))
        .collect();
    for ((a, b), c) in first.iter().zip(&second).zip(&fresh) {
        assert_same_report(a, b, "same session, repeated batch");
        assert_same_report(a, c, "fresh session, same batch");
    }
}

#[test]
fn batch_reports_are_independent_of_execution_order() {
    // Property: the report of a query does not depend on what ran
    // before it in the batch (no run leaves a residue).
    let sys = System::new(ROWS, SEED);
    let mut forward: Vec<Query> = workload();
    let mut session = sys.session();
    let fwd_reports: Vec<_> = forward.iter().map(|q| session.run(Arch::Hipe, q)).collect();
    forward.reverse();
    let rev_reports: Vec<_> = forward.iter().map(|q| session.run(Arch::Hipe, q)).collect();
    for (f, r) in fwd_reports.iter().zip(rev_reports.iter().rev()) {
        assert_same_report(f, r, "forward vs reversed batch");
    }
    // Interleaving architectures leaves no residue either.
    let q = Query::q6();
    let alone = sys.session().run(Arch::Hive, &q);
    let mut mixed = sys.session();
    mixed.run(Arch::HostX86, &q);
    mixed.run(Arch::HmcIsa, &q);
    let after_others = mixed.run(Arch::Hive, &q);
    assert_same_report(&alone, &after_others, "HIVE after other archs");
}

#[test]
fn batch_loops_compile_once_per_distinct_query_per_arch() {
    // The system's plan cache: repeated executions of the same query
    // on the same arch compile once, not per run.
    let sys = System::new(ROWS, SEED);
    let queries = workload();
    let mut session = sys.session();
    assert_eq!(sys.compilations(), 0);
    let first: Vec<_> = queries.iter().map(|q| session.run(Arch::Hipe, q)).collect();
    assert_eq!(sys.compilations(), queries.len() as u64);
    for _ in 0..3 {
        let again: Vec<_> = queries.iter().map(|q| session.run(Arch::Hipe, q)).collect();
        for (a, b) in first.iter().zip(&again) {
            assert_same_report(a, b, "cached-plan rerun");
        }
    }
    assert_eq!(
        sys.compilations(),
        queries.len() as u64,
        "a warm batch loop re-lowered a cached query"
    );
    // A different arch is a different plan: one more compile each.
    for q in &queries {
        session.run(Arch::Hive, q);
    }
    assert_eq!(sys.compilations(), 2 * queries.len() as u64);
    // Plans live on the system: a fresh session reuses them.
    sys.session().run(Arch::Hipe, &Query::q6());
    assert_eq!(sys.compilations(), 2 * queries.len() as u64);
}

#[test]
fn racing_sessions_lower_each_plan_once() {
    // Plans live on the system, and its lock is held across the
    // compile: sessions on four threads share one lowering of Q6.
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let reports: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| sys.session().run(Arch::Hipe, &q)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("session thread panicked"))
            .collect()
    });
    assert_eq!(sys.compilations(), 1);
    assert_eq!(sys.materializations(), 4);
    for r in &reports[1..] {
        assert_same_report(&reports[0], r, "racing sessions");
    }
}

#[test]
fn a_second_session_reuses_pruned_plans_on_every_arch() {
    // A pruned compile tests every region's zone-map summary; with
    // plans on the system, only the first session pays it.
    let mut cfg = SystemConfig::paper(ROWS, SEED);
    cfg.shape = TableShape::ClusteredShipdate { total_rows: ROWS };
    cfg.pruning = true;
    let sys = System::with_config(cfg);
    let q = Query::shipdate_window_permille(100);
    let first: Vec<_> = Arch::ALL
        .iter()
        .map(|&arch| sys.session().run(arch, &q))
        .collect();
    assert!(first.iter().all(|r| r.regions_pruned > 0), "nothing pruned");
    assert_eq!(sys.compilations(), Arch::ALL.len() as u64);
    let mut second = sys.session();
    for (&arch, cold) in Arch::ALL.iter().zip(&first) {
        assert_same_report(cold, &second.run(arch, &q), &format!("{arch}"));
    }
    assert_eq!(
        sys.compilations(),
        Arch::ALL.len() as u64,
        "a second session re-lowered a pruned plan"
    );
}

#[test]
fn plans_compile_once_and_rerun() {
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let backend = System::backend(Arch::Hipe);
    let plan = backend.compile(&sys, &q).expect("Q6 compiles");
    assert_eq!(plan.arch(), Arch::Hipe);
    assert_eq!(plan.rows(), ROWS);
    let mut session = sys.session();
    let a = session.run_plan(&plan);
    let b = session.run_plan(&plan);
    assert_same_report(&a, &b, "re-executed plan");
    assert_same_report(&a, &sys.run(Arch::Hipe, &q), "plan vs one-shot run");
}

#[test]
#[should_panic(expected = "different system")]
fn foreign_plans_are_rejected() {
    let small = System::new(64, 1);
    let big = System::new(128, 1);
    let plan = System::backend(Arch::Hipe)
        .compile(&small, &Query::q6())
        .expect("Q6 compiles");
    let _ = big.session().run_plan(&plan);
}

#[test]
fn plans_compiled_for_another_table_are_rejected_on_every_arch() {
    // Same rows, seed and partitioning, different table: a plan pruned
    // against a shipdate-clustered table would read back only the
    // regions the clustered zone map kept, and answer wrongly on a
    // uniform table.
    let mut cfg = SystemConfig::paper(ROWS, SEED);
    cfg.shape = TableShape::ClusteredShipdate { total_rows: ROWS };
    cfg.pruning = true;
    let clustered = System::with_config(cfg);
    let uniform = System::new(ROWS, SEED);
    let q = Query::shipdate_window_permille(100);
    for arch in Arch::ALL {
        let plan = System::backend(arch)
            .compile(&clustered, &q)
            .expect("the window compiles");
        assert!(plan.prune_stats().pruned > 0, "{arch}: nothing pruned");
        let err = catch_unwind(AssertUnwindSafe(|| uniform.session().run_plan(&plan)))
            .expect_err("a plan ran on a table it was not compiled for");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("compiled for a different system"),
            "{arch}: unexpected panic {msg:?}"
        );
    }
}
