//! Discrete-event service scheduler tests.

use hipe::Arch;
use hipe_db::Query;
use hipe_serve::{
    run_service, run_service_traced, try_run_service, Cluster, ClusterConfig, FaultPlan, LoadModel,
    ServiceConfig, ServiceError, ServiceReport,
};
use hipe_trace::{Tracer, Value};
use std::sync::Barrier;

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

fn closed_on(arch: Arch, mix: Vec<(Query, u32)>) -> ServiceConfig {
    ServiceConfig::closed(arch, 24, mix, 4)
}

#[test]
fn serves_every_query_and_orders_percentiles() {
    let cluster = Cluster::new(1024, SEED, 2);
    let report = run_service(&cluster, &closed(48, 4));
    assert_eq!(report.queries, 48);
    assert_eq!(report.shards, 2);
    assert!(report.makespan > 0);
    assert!(report.latency.p50 <= report.latency.p95);
    assert!(report.latency.p95 <= report.latency.p99);
    assert!(report.latency.p99 <= report.latency.max);
    assert!(report.latency.mean > 0.0);
    assert!(report.queries_per_gigacycle() > 0);
}

#[test]
fn service_runs_are_deterministic() {
    let cluster = Cluster::new(512, SEED, 2);
    let a = run_service(&cluster, &closed(32, 4));
    let b = run_service(&cluster, &closed(32, 4));
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.latency.p99, b.latency.p99);
    assert_eq!(a.shard_busy, b.shard_busy);
    // Counters are per-run deltas of *real* work: the first run lowers
    // its 3 mix queries x 2 shards; the second finds every plan warm
    // in the shards' shared caches and lowers nothing, while each run
    // still materializes its own 2 shard images.
    assert_eq!(a.compilations, 6);
    assert_eq!(b.compilations, 0);
    assert_eq!(a.materializations, 2);
    assert_eq!(b.materializations, 2);
}

#[test]
fn profile_pass_compiles_once_per_mix_query_per_shard() {
    let cluster = Cluster::new(512, SEED, 2);
    let report = run_service(&cluster, &closed(64, 4));
    // 3 mix queries x 2 shards, compiled exactly once each despite 64
    // served queries — the plan cache at work in the batch loop.
    assert_eq!(report.compilations, 6);
    assert_eq!(report.materializations, 2);
}

#[test]
fn shard_utilization_is_a_fraction_and_busy_bounded() {
    let cluster = Cluster::new(1024, SEED, 2);
    let report = run_service(&cluster, &closed(32, 4));
    for s in 0..report.shards {
        let u = report.utilization(s);
        assert!((0.0..=1.0).contains(&u), "shard {s} utilization {u}");
        assert!(report.shard_busy[s] <= report.makespan);
    }
    assert!(report.frontend_busy <= report.makespan);
}

#[test]
fn open_loop_light_load_has_low_queueing() {
    let cluster = Cluster::new(512, SEED, 2);
    // Arrivals far apart: latency ~ service time, no admission stall.
    let sparse = ServiceConfig {
        batch: 1,
        ..ServiceConfig::open(Arch::Hipe, 24, mix(), 20_000_000)
    };
    let report = run_service(&cluster, &sparse);
    assert_eq!(report.queries, 24);
    assert_eq!(report.admission_stall, 0);
    // Under saturation (arrivals back to back) the same stream waits
    // far longer.
    let dense = ServiceConfig {
        batch: 1,
        ..ServiceConfig::open(Arch::Hipe, 24, mix(), 1)
    };
    let saturated = run_service(&cluster, &dense);
    assert!(
        saturated.latency.p99 > report.latency.p99,
        "saturated p99 {} <= light p99 {}",
        saturated.latency.p99,
        report.latency.p99
    );
    // Open-loop saturation finishes sooner than the spread-out stream
    // (arrivals, not capacity, bound the light-load makespan).
    assert!(saturated.makespan < report.makespan);
}

#[test]
fn batching_amortizes_the_front_end() {
    let cluster = Cluster::new(512, SEED, 1);
    let unbatched = run_service(
        &cluster,
        &ServiceConfig {
            batch: 1,
            ..closed(64, 8)
        },
    );
    let batched = run_service(
        &cluster,
        &ServiceConfig {
            batch: 8,
            ..closed(64, 8)
        },
    );
    // One batch setup per 8 queries instead of per query.
    assert!(batched.frontend_busy < unbatched.frontend_busy);
}

#[test]
fn admission_window_throttles_the_open_flood() {
    let cluster = Cluster::new(512, SEED, 2);
    let flood = ServiceConfig {
        max_in_flight: 2,
        batch: 1,
        ..ServiceConfig::open(Arch::Hipe, 32, mix(), 1)
    };
    let report = run_service(&cluster, &flood);
    assert!(
        report.admission_stall > 0,
        "a 2-deep window must stall a flood"
    );
}

#[test]
fn batched_flood_respects_the_admission_window() {
    // Regression: every batch member must consume its own window
    // slot. Per-member admit/complete interleaving used to free one
    // slot for the whole batch, letting a full window hold
    // capacity + batch - 1 queries (tripping the in-flight
    // debug_assert) and understating admission_stall.
    let cluster = Cluster::new(512, SEED, 2);
    let flood = ServiceConfig {
        batch: 4,
        max_in_flight: 4,
        ..ServiceConfig::open(Arch::Hipe, 72, mix(), 1)
    };
    let report = run_service(&cluster, &flood);
    assert_eq!(report.queries, 72);
    assert!(
        report.admission_stall > 0,
        "a window as wide as one batch must stall a back-to-back flood"
    );
}

#[test]
fn default_open_config_survives_window_saturation() {
    // The review repro: default open-loop batching (4) against the
    // default 64-deep window, enough back-to-back queries to wrap the
    // window many times over.
    let cluster = Cluster::new(512, SEED, 2);
    let report = run_service(&cluster, &ServiceConfig::open(Arch::Hipe, 300, mix(), 1));
    assert_eq!(report.queries, 300);
    assert!(
        report.admission_stall > 0,
        "300 back-to-back queries must outrun a 64-deep window"
    );
}

#[test]
fn throughput_scales_with_shards_at_saturation() {
    // The acceptance-criteria property, at test scale: queries per
    // gigacycle monotone non-decreasing in shard count up to 4.
    let rows = 2048;
    let mut last = 0;
    for shards in [1usize, 2, 4] {
        let cluster = Cluster::new(rows, SEED, shards);
        let report = run_service(&cluster, &closed(48, 8));
        let qpgc = report.queries_per_gigacycle();
        assert!(
            qpgc >= last,
            "{shards} shards: {qpgc} q/Gcyc < previous {last}"
        );
        last = qpgc;
    }
}

#[test]
fn closed_loop_keeps_inflight_at_clients() {
    // One client, batch 1: strictly serial — makespan is at least the
    // sum of every query's service time, and latency max sees no
    // queueing behind other clients' work.
    let cluster = Cluster::new(512, SEED, 2);
    let report = run_service(
        &cluster,
        &ServiceConfig {
            batch: 4, // capped to 1 by the single client
            ..closed(16, 1)
        },
    );
    assert_eq!(report.queries, 16);
    let busiest = *report.shard_busy.iter().max().unwrap();
    assert!(report.makespan >= busiest);
    assert_eq!(report.admission_stall, 0);
}

#[test]
fn admission_stall_counts_from_each_members_own_arrival() {
    // Regression: admission once charged every member from the
    // batch's *latest* arrival, so with a roomy window a staggered batch
    // reported zero stall even though early members demonstrably
    // waited for the batch to fill. Closed-loop clients start at
    // staggered cycles 0..k, so every first batch is staggered.
    let cluster = Cluster::new(512, SEED, 2);
    let roomy = run_service(
        &cluster,
        &ServiceConfig {
            batch: 4,
            max_in_flight: 64,
            ..closed(32, 4)
        },
    );
    assert!(
        roomy.batching_delay > 0,
        "staggered arrivals must accrue batch-fill wait"
    );
    // With the window never binding, *all* admission stall is the
    // batch-fill wait — the decomposition is exact.
    assert_eq!(roomy.admission_stall, roomy.batching_delay);
    // A window as narrow as the batch adds genuine window pressure on
    // top of (never instead of) the batch-fill wait.
    let tight = run_service(
        &cluster,
        &ServiceConfig {
            batch: 4,
            max_in_flight: 4,
            ..ServiceConfig::open(Arch::Hipe, 72, mix(), 1)
        },
    );
    assert!(
        tight.admission_stall >= tight.batching_delay,
        "own-arrival stall ({}) can never undercut its batching component ({})",
        tight.admission_stall,
        tight.batching_delay
    );
}

#[test]
fn batching_delay_and_busy_components_reconstruct_total_latency() {
    // Single shard (no merge), single-query mix (uniform duration d),
    // k clients = batch k, roomy window: each round's batch fills at
    // its last arrival, pays the front-end cost c once, then serves
    // its members serially on the one cube. Summing member latencies
    // over every round gives exactly
    //
    //   sum(latency) = batching_delay + k * frontend_busy
    //                + (k + 1) / 2 * shard_busy
    //
    // so the report's components reconstruct its own mean latency.
    let cluster = Cluster::new(256, SEED, 1);
    let k = 4u64;
    let cfg = ServiceConfig {
        batch: k as usize,
        max_in_flight: 64,
        ..ServiceConfig::closed(Arch::Hipe, 32, vec![(Query::q6(), 1)], k as usize)
    };
    let report = run_service(&cluster, &cfg);
    assert_eq!(report.queries, 32);
    assert_eq!(report.admission_stall, report.batching_delay);
    let total_latency = (report.latency.mean * report.queries as f64).round() as u64;
    assert_eq!(
        2 * total_latency,
        2 * report.batching_delay + 2 * k * report.frontend_busy + (k + 1) * report.shard_busy[0],
        "latency does not decompose into batching + front-end + cube service"
    );
}

#[test]
fn zonemap_shard_skipping_preserves_service_answers_and_frees_shards() {
    // A narrow shipdate window over a clustered 4-shard cluster only
    // touches one shard's day range; with pruning on, the scheduler
    // never scatters the other shards' sub-queries.
    let rows = 4096;
    let window_mix = vec![(Query::shipdate_window_permille(100), 1)];
    let skip = Cluster::with_config(ClusterConfig::skipping(rows, SEED, 4));
    let full = Cluster::with_config(ClusterConfig {
        clustered: true,
        ..ClusterConfig::new(rows, SEED, 4)
    });
    let cfg = ServiceConfig::closed(Arch::Hipe, 32, window_mix, 4);
    let skip_report = run_service(&skip, &cfg);
    let full_report = run_service(&full, &cfg);
    assert_eq!(skip_report.answers, full_report.answers);
    assert_eq!(skip_report.answers_digest(), full_report.answers_digest());
    assert!(
        skip_report.makespan < full_report.makespan,
        "skipping should shorten the run: {} >= {}",
        skip_report.makespan,
        full_report.makespan
    );
    // Skipped shards never see a sub-query; under full scatter every
    // shard stays busy.
    let idle = skip_report.shard_busy.iter().filter(|&&b| b == 0).count();
    assert!(idle >= 2, "busy: {:?}", skip_report.shard_busy);
    assert!(full_report.shard_busy.iter().all(|&b| b > 0));
}

#[test]
fn report_display_mentions_throughput_and_utilization() {
    let cluster = Cluster::new(512, SEED, 2);
    let report = run_service(&cluster, &closed(16, 4));
    let s = report.to_string();
    assert!(s.contains("q/Gcyc"), "{s}");
    assert!(s.contains("p50/p95/p99"), "{s}");
    assert!(s.contains('%'), "{s}");
}

#[test]
fn load_model_variants_are_comparable() {
    assert_eq!(
        LoadModel::Closed {
            clients: 2,
            think: 0
        },
        LoadModel::Closed {
            clients: 2,
            think: 0
        }
    );
    assert_ne!(
        LoadModel::Open {
            mean_interarrival: 5
        },
        LoadModel::Open {
            mean_interarrival: 6
        }
    );
}

#[test]
#[should_panic(expected = "exceeds max_in_flight")]
fn batch_wider_than_the_window_is_rejected() {
    // A batch enters flight as one unit; a window narrower than the
    // batch could never admit it (and would over-admit silently).
    let cluster = Cluster::new(64, SEED, 1);
    let cfg = ServiceConfig {
        batch: 8,
        max_in_flight: 2,
        ..closed(16, 8)
    };
    let _ = run_service(&cluster, &cfg);
}

#[test]
#[should_panic(expected = "at least one query")]
fn zero_queries_panics() {
    let cluster = Cluster::new(64, SEED, 1);
    let _ = run_service(&cluster, &closed(0, 1));
}

#[test]
#[should_panic(expected = "mix is empty")]
fn empty_mix_panics() {
    let cluster = Cluster::new(64, SEED, 1);
    let _ = run_service(&cluster, &ServiceConfig::closed(Arch::Hipe, 4, vec![], 1));
}

#[test]
#[should_panic(expected = "zero total weight")]
fn zero_weight_mix_panics() {
    let cluster = Cluster::new(64, SEED, 1);
    let cfg = ServiceConfig::closed(Arch::Hipe, 4, vec![(Query::q6(), 0)], 1);
    let _ = run_service(&cluster, &cfg);
}

#[test]
fn zero_clients_fail_before_simulating() {
    let cluster = Cluster::new(64, SEED, 1);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_service(&cluster, &closed(4, 0))
    }))
    .expect_err("a closed loop without clients must panic");
    let msg = panic.downcast_ref::<String>().expect("the error's message");
    assert!(msg.contains("at least one client"), "{msg}");
    // Rejected by the up-front checks: no session, no profile.
    assert_eq!(cluster.materializations(), 0);
}

#[test]
fn each_rejected_config_is_its_typed_error() {
    let cluster = Cluster::new(64, SEED, 1);
    let cases = [
        ("zero queries", closed(0, 1), ServiceError::ZeroQueries),
        (
            "empty mix",
            ServiceConfig::closed(Arch::Hipe, 4, vec![], 1),
            ServiceError::EmptyMix,
        ),
        (
            "zero batch",
            ServiceConfig {
                batch: 0,
                ..closed(4, 1)
            },
            ServiceError::ZeroBatch,
        ),
        (
            "batch wider than the window",
            ServiceConfig {
                batch: 8,
                max_in_flight: 2,
                ..closed(16, 8)
            },
            ServiceError::BatchExceedsInFlight {
                batch: 8,
                max_in_flight: 2,
            },
        ),
        (
            "zero-weight mix",
            ServiceConfig::closed(Arch::Hipe, 4, vec![(Query::q6(), 0), (Query::q6(), 0)], 1),
            ServiceError::ZeroMixWeight,
        ),
        ("zero clients", closed(4, 0), ServiceError::ZeroClients),
    ];
    for (case, cfg, want) in cases {
        assert_eq!(cfg.validate(&cluster), Err(want), "{case}");
        let mut tracer = Tracer::new();
        let got = try_run_service(&cluster, &cfg, Some(&mut tracer));
        assert_eq!(got.err(), Some(want), "{case}");
        // The run stopped before its session opened: nothing simulated.
        assert_eq!(cluster.materializations(), 0, "{case}");
        // `run_service` panics with the error's message.
        let panic =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_service(&cluster, &cfg)))
                .expect_err(case);
        assert_eq!(panic.downcast_ref::<String>(), Some(&want.to_string()));
    }
    // An open loop has no clients to miss, and a valid config runs.
    let open = ServiceConfig::open(Arch::Hipe, 4, mix(), 100);
    assert_eq!(open.validate(&cluster), Ok(()));
    let report = try_run_service(&cluster, &open, None).expect("a valid config runs");
    assert_eq!(replayed(report), replayed(run_service(&cluster, &open)));
}

/// `r` without the counters that depend on what the cluster had
/// already lowered and measured before the run.
fn replayed(r: ServiceReport) -> ServiceReport {
    ServiceReport {
        compilations: 0,
        profiled: 0,
        ..r
    }
}

#[test]
fn memoized_runs_equal_fresh_cluster_runs_on_every_arch() {
    // clean -> fault -> open -> clean again on one long-lived cluster:
    // only the first run simulates, and every run equals the same
    // config on a fresh cluster, field for field.
    let fresh = || Cluster::replicated(1024, SEED, 2, 2);
    for arch in Arch::ALL {
        let clean = ServiceConfig::closed(arch, 48, mix(), 4);
        let fault = ServiceConfig {
            faults: vec![FaultPlan::new(
                1,
                0,
                run_service(&fresh(), &clean).makespan / 2,
            )],
            ..clean.clone()
        };
        let open = ServiceConfig::open(arch, 48, mix(), 200_000);
        let cluster = fresh();
        for (leg, cfg) in [clean.clone(), fault, open, clean].iter().enumerate() {
            let memoized = run_service(&cluster, cfg);
            assert_eq!(
                memoized.profiled,
                if leg == 0 { 3 } else { 0 },
                "{arch} leg {leg}"
            );
            assert_eq!(memoized.materializations, 2, "{arch} leg {leg}");
            assert_eq!(memoized.failovers, u64::from(leg == 1), "{arch} leg {leg}");
            assert_eq!(
                replayed(memoized),
                replayed(run_service(&fresh(), cfg)),
                "{arch} leg {leg}"
            );
        }
    }
}

#[test]
fn profiled_counts_the_runs_memo_misses() {
    // One cluster serves every arch in turn: the same queries measured
    // on an earlier arch are misses again on the next one.
    let cluster = Cluster::new(512, SEED, 2);
    for arch in Arch::ALL {
        let cold = run_service(&cluster, &closed_on(arch, mix()));
        assert_eq!(cold.profiled, 3, "{arch}: one per distinct mix query");
        assert_eq!(cold.compilations, 6, "{arch}: 3 queries x 2 shards");
        let warm = run_service(&cluster, &closed_on(arch, mix()));
        assert_eq!((warm.profiled, warm.compilations), (0, 0), "{arch}");
        let mut grown = mix();
        grown.push((Query::quantity_below_permille(700), 1));
        let grown = run_service(&cluster, &closed_on(arch, grown));
        assert_eq!(grown.profiled, 1, "{arch}: only the new query");
    }
    // A query repeated within one mix is measured once.
    let cluster = Cluster::new(512, SEED, 2);
    let repeated = vec![
        (Query::q6(), 1),
        (Query::quantity_below_permille(100), 2),
        (Query::q6(), 3),
    ];
    let report = run_service(&cluster, &closed_on(Arch::Hipe, repeated));
    assert_eq!(report.profiled, 2);
    assert_eq!(report.answers[0], report.answers[2]);
}

#[test]
fn pruned_clusters_replay_memoized_shard_skips() {
    let window_mix = vec![(Query::shipdate_window_permille(100), 1)];
    let skipping = || Cluster::with_config(ClusterConfig::skipping(4096, SEED, 4));
    for arch in Arch::ALL {
        let cfg = ServiceConfig::closed(arch, 32, window_mix.clone(), 4);
        let cluster = skipping();
        let cold = run_service(&cluster, &cfg);
        let warm = run_service(&cluster, &cfg);
        assert_eq!((cold.profiled, warm.profiled), (1, 0), "{arch}");
        // Skipped shards stay idle on the replay too.
        let idle = warm.shard_busy.iter().filter(|&&b| b == 0).count();
        assert!(idle >= 2, "{arch} busy: {:?}", warm.shard_busy);
        let expected = replayed(run_service(&skipping(), &cfg));
        assert_eq!(replayed(cold), expected, "{arch} cold");
        assert_eq!(replayed(warm), expected, "{arch} warm");
    }
}

#[test]
fn memoized_traced_runs_write_identical_chrome_json() {
    let cluster = Cluster::replicated(1024, SEED, 2, 2);
    for arch in Arch::ALL {
        let cfg = ServiceConfig::closed(arch, 24, mix(), 4);
        let chrome = || {
            let mut tracer = Tracer::new();
            let report = run_service_traced(&cluster, &cfg, Some(&mut tracer));
            (report.profiled, tracer.to_chrome_json(Value::Null))
        };
        let (cold_profiled, cold) = chrome();
        let (warm_profiled, warm) = chrome();
        assert_eq!((cold_profiled, warm_profiled), (3, 0), "{arch}");
        assert!(cold == warm, "{arch}: a memo hit changed the trace");
    }
}

#[test]
fn concurrent_runs_on_one_cluster_agree() {
    let cluster = Cluster::replicated(1024, SEED, 2, 2);
    for arch in Arch::ALL {
        let cfg = ServiceConfig::closed(arch, 32, mix(), 4);
        // Both threads start together, so both usually miss the memo.
        let start = Barrier::new(2);
        let run = || {
            start.wait();
            run_service(&cluster, &cfg)
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(run);
            let b = scope.spawn(run);
            (a.join().unwrap(), b.join().unwrap())
        });
        // Host counters are cluster-wide deltas, so concurrent runs may
        // see each other's lowerings and materializations.
        let simulated = |r: ServiceReport| ServiceReport {
            materializations: 0,
            ..replayed(r)
        };
        assert_eq!(simulated(a.clone()), simulated(b), "{arch}");
        assert_eq!(
            simulated(a),
            simulated(run_service(&Cluster::replicated(1024, SEED, 2, 2), &cfg)),
            "{arch}"
        );
    }
}

#[test]
fn rejected_configs_leave_the_memo_empty() {
    let cluster = Cluster::new(512, SEED, 2);
    for arch in Arch::ALL {
        let rejected = ServiceConfig {
            batch: 8,
            max_in_flight: 2,
            ..ServiceConfig::closed(arch, 16, mix(), 8)
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_service(&cluster, &rejected)
        }))
        .expect_err("a batch wider than the window must panic");
        assert_eq!(cluster.materializations(), 0, "{arch}");
    }
    // Nothing was memoized: the first accepted run measures its mix.
    for arch in Arch::ALL {
        let report = run_service(&cluster, &ServiceConfig::closed(arch, 16, mix(), 4));
        assert_eq!(report.profiled, 3, "{arch}");
    }
}

#[test]
fn metrics_project_the_simulated_counters() {
    let cluster = Cluster::replicated(1024, SEED, 2, 2);
    let report = run_service(
        &cluster,
        &ServiceConfig {
            faults: vec![FaultPlan::new(1, 0, 20_000)],
            ..closed(32, 4)
        },
    );
    assert_eq!(report.failovers, 1);
    let Value::Object(members) = report.metrics() else {
        panic!("metrics are an object");
    };
    let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
    assert!(names.iter().all(|n| n.starts_with("serve.")), "{names:?}");
    // Host-side counts depend on what earlier runs cached; they stay
    // out of the simulated namespace.
    for host_side in ["compilations", "materializations", "profiled"] {
        assert!(!names.iter().any(|n| n.contains(host_side)), "{host_side}");
    }
    let metric = |name: &str| members.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let int = |name: &str| metric(name).and_then(Value::as_number::<u64>);
    assert_eq!(int("serve.queries"), Some(report.queries));
    assert_eq!(int("serve.makespan_cyc"), Some(report.makespan));
    assert_eq!(
        int("serve.queries_per_gcyc"),
        Some(report.queries_per_gigacycle())
    );
    assert_eq!(int("serve.latency.p99_cyc"), Some(report.latency.p99));
    assert_eq!(
        int("serve.subquery_latency.max_cyc"),
        Some(report.subquery_latency.max)
    );
    assert_eq!(int("serve.failovers"), Some(1));
    assert_eq!(int("serve.redispatched"), Some(report.redispatched));
    assert_eq!(int("serve.answers_digest"), Some(report.answers_digest()));
    let busy: Vec<u64> = report.replica_busy.iter().flatten().copied().collect();
    assert_eq!(
        metric("serve.replica_busy_cyc"),
        Some(&Value::summary(busy.iter().copied()))
    );
    let busy_sum: u64 = busy.iter().sum();
    assert_eq!(busy.len(), 4);
    assert_eq!(busy_sum, report.shard_busy.iter().sum::<u64>());
}
