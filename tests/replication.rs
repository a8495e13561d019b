//! End-to-end acceptance tests of replication, routing and failover.
//!
//! The contract: a replicated `Cluster` returns bit-identical query
//! results to a single monolithic `System` on all four architectures,
//! whatever its replica count and host worker width — and a replica
//! killed at any point of a service run leaves the service answer
//! bit-identical to the fault-free run.

use hipe::{Arch, System};
use hipe_db::Query;
use hipe_serve::{run_service, Cluster, ClusterConfig, ClusterReport, FaultPlan, ServiceConfig};

const SEED: u64 = 2024;

/// Worker widths the determinism tests sweep: serial, two threads and
/// the full host width, deduplicated.
fn worker_sweep() -> Vec<usize> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut widths = vec![1usize, 2, cpus];
    widths.sort_unstable();
    widths.dedup();
    widths
}

/// A replicated cluster built with an explicit host worker width.
fn replicated_with_workers(rows: usize, shards: usize, replicas: usize, workers: usize) -> Cluster {
    Cluster::with_config(ClusterConfig {
        workers,
        ..ClusterConfig::replicated(rows, SEED, shards, replicas)
    })
}

#[test]
fn replicated_queries_match_the_monolith() {
    // 1000 rows over 3 shards exercises the uneven split (334/333/333)
    // and puts rows exactly on shard edges; the permille sweep covers
    // empty, sparse, dense and all-rows selectivities.
    const ROWS: usize = 1000;
    let mono = System::new(ROWS, SEED);
    let mut mono_session = mono.session();
    let cluster = Cluster::replicated(ROWS, SEED, 3, 2);
    let mut session = cluster.session();
    let mut queries = vec![Query::q6()];
    for pm in [0, 100, 500, 1000] {
        queries.push(Query::quantity_below_permille(pm));
        queries.push(Query::quantity_below_permille(pm).with_aggregate());
    }
    for query in &queries {
        for arch in Arch::ALL {
            let m = mono_session.run(arch, query);
            let full = session.run(arch, query);
            assert_eq!(full.result, m.result, "{arch}, [{query}]");
        }
    }
    // The whole sweep warmed one session: a materialization per
    // shard (replicas share it), none per query.
    assert_eq!(cluster.materializations(), 3);
}

#[test]
fn killing_a_replica_at_any_point_of_the_run_is_answer_invariant() {
    let cluster = Cluster::replicated(512, SEED, 2, 2);
    let mix = vec![
        (Query::q6(), 2),
        (Query::quantity_below_permille(100), 3),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ];
    let cfg = ServiceConfig::closed(Arch::Hipe, 24, mix, 4);
    let clean = run_service(&cluster, &cfg);
    assert_eq!(clean.failovers, 0);
    let digest = clean.answers_digest();
    for shard in 0..2 {
        for replica in 0..2 {
            for tenth in 1..10u64 {
                let at_cycle = clean.makespan * tenth / 10;
                let failed = run_service(
                    &cluster,
                    &ServiceConfig {
                        faults: vec![FaultPlan::new(shard, replica, at_cycle)],
                        ..cfg.clone()
                    },
                );
                let ctx = format!("shard {shard} replica {replica} killed at {at_cycle}");
                assert_eq!(failed.queries, clean.queries, "{ctx}: queries served");
                assert_eq!(failed.failovers, 1, "{ctx}: failover count");
                assert_eq!(failed.answers, clean.answers, "{ctx}: answers");
                assert_eq!(failed.answers_digest(), digest, "{ctx}: digest");
                assert!(
                    failed.replica_busy[shard][replica] <= at_cycle,
                    "{ctx}: the dead replica kept serving"
                );
            }
        }
    }
}

#[test]
fn failover_is_answer_invariant_on_all_architectures() {
    let cluster = Cluster::replicated(512, SEED, 2, 2);
    let mix = vec![(Query::q6(), 1), (Query::quantity_below_permille(250), 1)];
    for arch in Arch::ALL {
        let cfg = ServiceConfig::closed(arch, 16, mix.clone(), 4);
        let clean = run_service(&cluster, &cfg);
        let failed = run_service(
            &cluster,
            &ServiceConfig {
                faults: vec![FaultPlan::new(1, 0, clean.makespan / 2)],
                ..cfg
            },
        );
        assert_eq!(failed.queries, clean.queries, "{arch}");
        assert_eq!(failed.failovers, 1, "{arch}");
        assert_eq!(failed.answers, clean.answers, "{arch}");
        assert_eq!(failed.answers_digest(), clean.answers_digest(), "{arch}");
    }
}

#[test]
fn host_thread_count_never_changes_replicated_results_or_cycles() {
    const ROWS: usize = 1000;
    let base = replicated_with_workers(ROWS, 3, 2, 1);
    let mut base_session = base.session();
    let queries = [
        Query::q6(),
        Query::quantity_below_permille(100),
        Query::quantity_below_permille(500).with_aggregate(),
    ];
    for workers in worker_sweep() {
        let cluster = replicated_with_workers(ROWS, 3, 2, workers);
        let mut session = cluster.session();
        for query in &queries {
            for arch in Arch::ALL {
                let b = base_session.run(arch, query);
                let full = session.run(arch, query);
                let ctx = format!("{workers} workers, {arch}, [{query}]");
                assert_eq!(full.result, b.result, "{ctx}: result");
                assert_eq!(full.cycles, b.cycles, "{ctx}: cycles");
                let shard_cycles = |r: &ClusterReport| -> Vec<u64> {
                    r.shard_reports.iter().map(|s| s.cycles).collect()
                };
                assert_eq!(shard_cycles(&full), shard_cycles(&b), "{ctx}: shard cycles");
            }
        }
    }
}

#[test]
fn host_thread_count_never_changes_failover_outcomes() {
    let mix = vec![(Query::q6(), 1), (Query::quantity_below_permille(250), 1)];
    let cfg = ServiceConfig::closed(Arch::Hipe, 16, mix, 4);
    let serial = replicated_with_workers(512, 2, 2, 1);
    let clean = run_service(&serial, &cfg);
    let fault_cfg = ServiceConfig {
        faults: vec![FaultPlan::new(1, 0, clean.makespan / 2)],
        ..cfg.clone()
    };
    let base_failed = run_service(&serial, &fault_cfg);
    for workers in worker_sweep() {
        let cluster = replicated_with_workers(512, 2, 2, workers);
        let ctx = format!("{workers} workers");
        let report = run_service(&cluster, &cfg);
        assert_eq!(report.answers, clean.answers, "{ctx}: clean answers");
        assert_eq!(
            report.answers_digest(),
            clean.answers_digest(),
            "{ctx}: clean digest"
        );
        assert_eq!(report.makespan, clean.makespan, "{ctx}: clean makespan");
        let failed = run_service(&cluster, &fault_cfg);
        assert_eq!(failed.failovers, base_failed.failovers, "{ctx}: failovers");
        assert_eq!(failed.answers, base_failed.answers, "{ctx}: failed answers");
        assert_eq!(
            failed.makespan, base_failed.makespan,
            "{ctx}: failed makespan"
        );
        assert_eq!(
            failed.replica_busy, base_failed.replica_busy,
            "{ctx}: replica busy"
        );
    }
}
