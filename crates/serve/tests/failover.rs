//! Replication, routing and fail-stop failover tests for the service
//! scheduler.

use hipe::Arch;
use hipe_db::Query;
use hipe_serve::{
    run_service, try_run_service, Cluster, FaultPlan, RoutingPolicy, ServiceConfig, ServiceError,
};

const SEED: u64 = 2018;

fn mix() -> Vec<(Query, u32)> {
    vec![
        (Query::q6(), 2),
        (Query::quantity_below_permille(100), 3),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ]
}

fn closed(queries: usize, clients: usize) -> ServiceConfig {
    ServiceConfig::closed(Arch::Hipe, queries, mix(), clients)
}

#[test]
fn replicas_multiply_saturated_throughput() {
    // The acceptance-criteria property at test scale: going from one
    // to two replicas per shard under a saturating closed loop nearly
    // doubles throughput (two sub-queries of a batch run concurrently
    // on the two copies of each shard).
    let single = run_service(&Cluster::new(2048, SEED, 4), &closed(48, 8));
    let double = run_service(&Cluster::replicated(2048, SEED, 4, 2), &closed(48, 8));
    assert_eq!(single.replicas, 1);
    assert_eq!(double.replicas, 2);
    assert_eq!(single.queries, double.queries);
    let (one, two) = (
        single.queries_per_gigacycle(),
        double.queries_per_gigacycle(),
    );
    assert!(
        two * 10 >= one * 17,
        "2 replicas {two} q/Gcyc < 1.7x of 1 replica {one} q/Gcyc"
    );
    // Answers are routing-independent.
    assert_eq!(single.answers, double.answers);
    assert_eq!(single.answers_digest(), double.answers_digest());
}

#[test]
fn every_routing_policy_preserves_answers_and_serves_everything() {
    let cluster = Cluster::replicated(1024, SEED, 2, 3);
    let mut digests = Vec::new();
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::FastestReplica,
    ] {
        let report = run_service(
            &cluster,
            &ServiceConfig {
                routing,
                ..closed(36, 6)
            },
        );
        assert_eq!(report.queries, 36, "{routing:?}");
        assert_eq!(report.failovers, 0, "{routing:?}");
        digests.push(report.answers_digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "policies disagree on the service answer: {digests:?}"
    );
}

#[test]
fn shard_busy_is_the_sum_over_its_replicas() {
    let report = run_service(&Cluster::replicated(1024, SEED, 2, 2), &closed(32, 8));
    assert_eq!(report.replica_busy.len(), report.shards);
    for s in 0..report.shards {
        assert_eq!(report.replica_busy[s].len(), report.replicas);
        assert_eq!(
            report.shard_busy[s],
            report.replica_busy[s].iter().sum::<u64>(),
            "shard {s}"
        );
        for r in 0..report.replicas {
            let u = report.replica_utilization(s, r);
            assert!((0.0..=1.0).contains(&u), "replica {s}/{r} utilization {u}");
        }
        // Two concurrent replicas may exceed 1.0 together but never 2.0.
        assert!(report.utilization(s) <= report.replicas as f64);
    }
}

#[test]
fn mid_run_replica_kill_is_answer_invariant() {
    let cluster = Cluster::replicated(1024, SEED, 2, 2);
    let clean = run_service(&cluster, &closed(40, 8));
    assert_eq!(clean.failovers, 0);
    assert_eq!(clean.redispatched, 0);
    let fault = FaultPlan::new(1, 0, clean.makespan / 2);
    let failed = run_service(
        &cluster,
        &ServiceConfig {
            faults: vec![fault],
            ..closed(40, 8)
        },
    );
    // Every query is still served, the fault is counted, lost
    // sub-queries were re-dispatched, and the service answer is
    // bit-identical to the fault-free run.
    assert_eq!(failed.queries, clean.queries);
    assert_eq!(failed.failovers, 1);
    assert!(
        failed.redispatched >= 1,
        "a saturated run must have had sub-queries in flight on the dark replica"
    );
    assert_eq!(failed.answers, clean.answers);
    assert_eq!(failed.answers_digest(), clean.answers_digest());
    // The dead replica stopped accruing busy cycles at the fault.
    assert!(failed.replica_busy[1][0] <= fault.at_cycle);
    // Detection + re-dispatch is pure added latency.
    assert!(failed.makespan >= clean.makespan);
    let s = failed.to_string();
    assert!(s.contains("1 failover(s)"), "{s}");
}

#[test]
fn a_fault_past_the_makespan_never_fires() {
    let cluster = Cluster::replicated(512, SEED, 2, 2);
    let clean = run_service(&cluster, &closed(24, 4));
    let failed = run_service(
        &cluster,
        &ServiceConfig {
            faults: vec![FaultPlan::new(0, 1, clean.makespan * 2)],
            ..closed(24, 4)
        },
    );
    assert_eq!(failed.failovers, 0);
    assert_eq!(failed.redispatched, 0);
    assert_eq!(failed.makespan, clean.makespan);
    assert_eq!(failed.shard_busy, clean.shard_busy);
}

#[test]
fn profile_pass_compiles_once_per_mix_query_per_shard() {
    let report = run_service(&Cluster::replicated(512, SEED, 2, 2), &closed(24, 4));
    // 3 mix queries x 2 shards: replicas are servers over their
    // shard's one cube, so replication adds no lowerings and no
    // materializations.
    assert_eq!(report.compilations, 6);
    assert_eq!(report.materializations, 2);
}

#[test]
fn report_display_names_the_replica_count() {
    let report = run_service(&Cluster::replicated(512, SEED, 2, 2), &closed(16, 4));
    let s = report.to_string();
    assert!(s.contains("x2 replicas"), "{s}");
    assert!(!s.contains("failover"), "fault-free run: {s}");
}

#[test]
#[should_panic(expected = "kills every replica of shard 0")]
fn killing_a_whole_shard_is_rejected() {
    let cluster = Cluster::replicated(256, SEED, 2, 2);
    let cfg = ServiceConfig {
        faults: vec![FaultPlan::new(0, 0, 100), FaultPlan::new(0, 1, 200)],
        ..closed(8, 2)
    };
    let _ = run_service(&cluster, &cfg);
}

#[test]
fn each_invalid_fault_plan_is_its_typed_error() {
    let cluster = Cluster::replicated(256, SEED, 2, 2);
    let kill = FaultPlan::new;
    let cases = [
        (
            vec![kill(7, 0, 100)],
            ServiceError::FaultShardOutOfRange {
                fault: 0,
                shard: 7,
                shards: 2,
            },
        ),
        (
            vec![kill(1, 0, 100), kill(0, 3, 100)],
            ServiceError::FaultReplicaOutOfRange {
                fault: 1,
                replica: 3,
                replicas: 2,
            },
        ),
        (
            vec![kill(1, 1, 100), kill(1, 1, 900)],
            ServiceError::ReplicaKilledTwice {
                fault: 1,
                shard: 1,
                replica: 1,
            },
        ),
        (
            vec![kill(0, 1, 100), kill(1, 0, 100), kill(0, 0, 200)],
            ServiceError::NoSurvivor { shard: 0 },
        ),
    ];
    for (faults, want) in cases {
        let cfg = ServiceConfig {
            faults,
            ..closed(8, 2)
        };
        assert_eq!(cfg.validate(&cluster), Err(want));
        assert_eq!(try_run_service(&cluster, &cfg, None).err(), Some(want));
    }
    // Rejected up front: the cluster never opened a session.
    assert_eq!(cluster.materializations(), 0);
}

#[test]
#[should_panic(expected = "replica 3 out of range")]
fn fault_on_a_missing_replica_is_rejected() {
    let cluster = Cluster::replicated(256, SEED, 2, 2);
    let cfg = ServiceConfig {
        faults: vec![FaultPlan::new(0, 3, 100)],
        ..closed(8, 2)
    };
    let _ = run_service(&cluster, &cfg);
}

#[test]
#[should_panic(expected = "shard 7 out of range (2 shards)")]
fn utilization_of_a_missing_shard_names_the_bound() {
    let report = run_service(&Cluster::new(256, SEED, 2), &closed(8, 2));
    let _ = report.utilization(7);
}

#[test]
#[should_panic(expected = "replica 2 out of range (shard 1 has 2 replicas)")]
fn replica_utilization_of_a_missing_replica_names_the_bound() {
    let report = run_service(&Cluster::replicated(256, SEED, 2, 2), &closed(8, 2));
    let _ = report.replica_utilization(1, 2);
}
