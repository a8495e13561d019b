//! Tracing is observability, not simulation: recording a trace must
//! leave every figure bit- and cycle-identical to the untraced run.
//!
//! The service's seam is an `Option<&mut Tracer>`, and a single run
//! is traced after the fact with `RunReport::trace_into`: emission
//! only *reads* completed reports and replayed schedules — so turning
//! tracing on cannot perturb a single cycle. These tests re-record one row from
//! each figure family (a replicated+faulted service row, a zone-map
//! skip row, a partitioned-execution row) with tracing enabled and
//! assert the traced run identical to the untraced one, then check
//! the recording itself reconciles with the report it describes. The
//! service row additionally sweeps the scatter worker pool (1 and 4
//! workers) through `ClusterConfig::workers`, so the contract holds
//! serial and parallel alike.

use hipe::{Arch, RunReport, System, SystemConfig, TableShape};
use hipe_db::{CmpOp, Column, ColumnPredicate, Query};
use hipe_serve::{
    run_service, run_service_traced, Cluster, ClusterConfig, FaultPlan, ServiceConfig,
    ServiceReport,
};
use hipe_trace::{Tracer, TrackKind};

const SEED: u64 = 2018;

/// The four machines of the paper sweep.
const ARCHS: [Arch; 4] = [Arch::HostX86, Arch::HmcIsa, Arch::Hive, Arch::Hipe];

/// Full-fidelity comparison of two single-query reports.
fn assert_same_run(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.result, b.result, "{what}: scan result differs");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles differ");
    assert_eq!(a.phases, b.phases, "{what}: phase breakdown differs");
    assert_eq!(a.partitions, b.partitions, "{what}: partitions differ");
    assert_eq!(a.hmc, b.hmc, "{what}: cube stats differ");
    assert_eq!(a.engine, b.engine, "{what}: engine stats differ");
    assert_eq!(
        a.regions_pruned, b.regions_pruned,
        "{what}: pruning decisions differ"
    );
    assert_eq!(
        a.energy.total_pj(),
        b.energy.total_pj(),
        "{what}: energy differs"
    );
}

/// Full-fidelity comparison of two service reports.
fn assert_same_service(a: &ServiceReport, b: &ServiceReport, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan differs");
    assert_eq!(a.queries, b.queries, "{what}: query count differs");
    assert_eq!(a.latency, b.latency, "{what}: latency differs");
    assert_eq!(
        a.subquery_latency, b.subquery_latency,
        "{what}: sub-query latency differs"
    );
    assert_eq!(a.shard_busy, b.shard_busy, "{what}: shard busy differs");
    assert_eq!(
        a.replica_busy, b.replica_busy,
        "{what}: replica busy differs"
    );
    assert_eq!(
        a.frontend_busy, b.frontend_busy,
        "{what}: front-end busy differs"
    );
    assert_eq!(a.failovers, b.failovers, "{what}: failovers differ");
    assert_eq!(
        a.redispatched, b.redispatched,
        "{what}: redispatch count differs"
    );
    assert_eq!(
        a.answers_digest(),
        b.answers_digest(),
        "{what}: answers differ"
    );
}

/// The figures bench's service mix.
fn serve_mix() -> Vec<(Query, u32)> {
    vec![
        (Query::q6(), 1),
        (Query::quantity_below_permille(100), 2),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ]
}

#[test]
fn serve_row_identical_traced_at_one_and_four_workers() {
    for workers in [1, 4] {
        let mut cluster_cfg = ClusterConfig::replicated(6144, SEED, 2, 2);
        cluster_cfg.workers = workers;
        let cluster = Cluster::with_config(cluster_cfg);
        let cfg = ServiceConfig::closed(Arch::Hipe, 24, serve_mix(), 4);

        // Place a mid-run fail-stop fault, like the `serve_fail` row.
        let clean = run_service(&cluster, &cfg);
        let cfg = ServiceConfig {
            faults: vec![FaultPlan::new(1, 0, clean.makespan / 2)],
            ..cfg
        };

        let untraced = run_service(&cluster, &cfg);
        let mut tracer = Tracer::new();
        let traced = run_service_traced(&cluster, &cfg, Some(&mut tracer));
        assert_same_service(&untraced, &traced, &format!("workers={workers}"));
        assert!(untraced.failovers >= 1, "the fault must actually fire");

        // The recording must reconcile with the report it describes:
        // one async lifetime span per query (the `queries` track is
        // the scheduler's third registration), one kill instant per
        // failover, one redispatch instant per lost sub-query.
        let query_spans = tracer.spans().filter(|s| s.track.index() == 2).count();
        assert_eq!(query_spans as u64, traced.queries);
        assert_eq!(tracer.instants_named("fault.kill") as u64, traced.failovers);
        assert_eq!(
            tracer.instants_named("redispatch") as u64,
            traced.redispatched
        );
    }
}

#[test]
fn skip_row_identical_traced_on_every_machine() {
    // A shipdate-clustered, pruning-enabled system and a ~1 %
    // selectivity window — the `skip_1%` figure shape.
    let rows = 8192;
    let mut cfg = SystemConfig::paper(rows, SEED);
    cfg.shape = TableShape::ClusteredShipdate { total_rows: rows };
    cfg.pruning = true;
    let sys = System::with_config(cfg);
    let query = Query::new(
        vec![ColumnPredicate::new(Column::Shipdate, CmpOp::Range(0, 25))],
        false,
    );

    let mut plain_session = sys.session();
    let mut traced_session = sys.session();
    for arch in ARCHS {
        let plain = plain_session.run(arch, &query);
        let mut tracer = Tracer::new();
        let track = tracer.track("system", TrackKind::Sync);
        let traced = traced_session.run(arch, &query);
        traced.trace_into(&mut tracer, track, 0, "query");
        assert_same_run(&plain, &traced, &format!("{arch:?} pruned window"));
        assert!(traced.regions_pruned >= 1, "{arch:?}: nothing was pruned");
        // Every pruning run records its decision as a `zonemap`
        // instant, and the lifecycle span covers the whole run.
        assert_eq!(tracer.instants_named("zonemap"), 1, "{arch:?}");
        let span = tracer.spans().next().expect("a query span");
        assert_eq!(span.end_cycle - span.begin_cycle, traced.cycles, "{arch:?}");

        // Emission left the traced session untouched: its next,
        // untraced run is identical too.
        let untraced = traced_session.run(arch, &query);
        assert_same_run(&plain, &untraced, &format!("{arch:?} after tracing"));
    }
}

#[test]
fn par_row_identical_traced_with_per_engine_lanes() {
    // Four vault-group engines, the `par_4` figure shape.
    let partitions = 4;
    let sys = System::partitioned(8192, SEED, partitions);
    let mut plain_session = sys.session();
    let mut traced_session = sys.session();
    for query in [Query::q6(), Query::quantity_below_permille(500)] {
        for arch in [Arch::Hive, Arch::Hipe] {
            let plain = plain_session.run(arch, &query);
            let mut tracer = Tracer::new();
            let track = tracer.track("system", TrackKind::Sync);
            let traced = traced_session.run(arch, &query);
            traced.trace_into(&mut tracer, track, 0, "query");
            assert_same_run(&plain, &traced, &format!("{arch:?} par_{partitions}"));
        }
    }
}
