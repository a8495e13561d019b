//! The three workloads. Each builds its systems (timed as `setup_s`),
//! computes reference answers with `hipe_db::scan::reference` (outside
//! every timed region), runs timed passes through [`measure`], and
//! records its metrics.

use crate::digest::Digest;
use crate::spans::Spans;
use crate::{geomean, guard, measure, percentile, ratio, rows_at, Ctx, Setups, Tally, Timed};
use crate::{Values, SETUP_REPS, WORKERS};
use hipe::{Arch, RunReport, Session, System, SystemConfig, TableShape};
use hipe_db::scan::{self, ScanResult};
use hipe_db::{LineitemTable, Query, ZoneMap};
use hipe_serve::{
    run_service, run_service_traced, Cluster, ClusterConfig, ClusterReport, FaultPlan,
    ServiceConfig, ServiceReport,
};
use hipe_sim::{Cycle, WorkerPool};
use hipe_trace::Tracer;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Architecture tags used in metric names, in `Arch::ALL` order.
const ARCH_TAGS: [&str; 4] = ["x86", "hmcisa", "hive", "hipe"];

/// `run_plan` tags: the four single-engine machines plus HIPE on eight
/// vault-group engines.
const RUN_TAGS: [&str; 5] = ["x86", "hmcisa", "hive", "hipe", "hipe_p8"];

/// Metric tag of an architecture (see [`ARCH_TAGS`]).
fn tag(arch: Arch) -> &'static str {
    let i = Arch::ALL
        .iter()
        .position(|&a| a == arch)
        .expect("Arch::ALL lists every architecture");
    ARCH_TAGS[i]
}

/// One query compiled and executed on one machine.
struct PlanRun {
    arch: Arch,
    /// `run_plan` tag: the arch tag, or `hipe_p8` on eight engines.
    tag: &'static str,
    /// Index of the query in the workload's query list.
    query: usize,
    instrs: u64,
    regions_pruned: u64,
    regions_total: u64,
    report: Option<RunReport>,
}

fn open_system(spans: &mut Spans, cfg: &SystemConfig) -> System {
    spans.call("db", "system", "", |_| System::with_config(cfg.clone()))
}

fn open_session<'a>(spans: &mut Spans, sys: &'a System) -> Session<'a> {
    spans.call("db", "session", "", |_| sys.session())
}

/// `Backend::compile` then `Session::run_plan`, each in its own span.
fn plan_run(
    spans: &mut Spans,
    sys: &System,
    session: &mut Session<'_>,
    arch: Arch,
    run_tag: &'static str,
    query: usize,
    q: &Query,
) -> PlanRun {
    let plan = spans.call("compiler", "compile", tag(arch), |_| {
        guard(|| System::backend(arch).compile(sys, q)).and_then(Result::ok)
    });
    let mut run = PlanRun {
        arch,
        tag: run_tag,
        query,
        instrs: 0,
        regions_pruned: 0,
        regions_total: 0,
        report: None,
    };
    if let Some(plan) = plan {
        run.instrs = plan.instructions() as u64;
        run.regions_pruned = plan.prune_stats().pruned as u64;
        run.regions_total = plan.prune_stats().total() as u64;
        // The plan is dropped inside the call, so the call covers all
        // of the pass's work on it.
        run.report = spans.call("core", "run_plan", run_tag, |_| {
            guard(move || session.run_plan(&plan))
        });
    }
    run
}

/// Checks each run against its query's reference answer and digests
/// its simulated statistics.
fn check_plan_runs(runs: &[PlanRun], refs: &[ScanResult], tally: &mut Tally, d: &mut Digest) {
    for r in runs {
        let report = r.report.as_ref();
        tally.run(report.is_some_and(|rep| rep.result == refs[r.query]));
        if let Some(rep) = report {
            d.run(rep);
        }
    }
}

/// Times `LineitemTable::generate_shaped_on` and `ZoneMap::build` on the
/// workload's logical table, once per set-up repetition when traced and
/// once otherwise; returns the table (the reference answers' input).
fn probe_table(ctx: &mut Ctx, rows: usize, shape: TableShape) -> LineitemTable {
    let pool = WorkerPool::new(WORKERS);
    let seed = ctx.opts.seed;
    let reps = if ctx.opts.trace { SETUP_REPS } else { 1 };
    let from = ctx.spans.mark();
    let mut table = None;
    for _ in 0..reps {
        let t = ctx.spans.call("db", "generate", "", |_| {
            LineitemTable::generate_shaped_on(&pool, seed, 0, rows, shape)
        });
        ctx.spans.call("db", "zonemap", "", |_| ZoneMap::build(&t));
        table = Some(t);
    }
    let to = ctx.spans.mark();
    for (name, metric) in [("generate", "db.generate_ms"), ("zonemap", "db.zonemap_ms")] {
        let per_rep: Vec<f64> = ctx.spans.spans()[from..to]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        ctx.per_layer.set(metric, crate::median(per_rep));
    }
    table.expect("at least one repetition")
}

/// The end-to-end simulated metrics over a list of HIPE query runs
/// executed back to back by one client: total cycles and energy,
/// throughput, and p50/p99 over the runs' cycles.
fn stream_metrics(e2e: &mut Values, hipe: &[(Cycle, f64)], speedups: &[f64]) {
    let cycles: Vec<u64> = hipe.iter().map(|&(c, _)| c).collect();
    let total: u64 = cycles.iter().sum();
    e2e.set("sim_hipe_mcyc", total as f64 / 1e6);
    e2e.set(
        "sim_hipe_energy_uj",
        hipe.iter().map(|&(_, pj)| pj).sum::<f64>() / 1e6,
    );
    e2e.set("sim_speedup_x86", geomean(speedups));
    e2e.set("sim_qpgc", ratio(hipe.len() as f64 * 1e9, total as f64));
    let mcyc: Vec<f64> = cycles.iter().map(|&c| c as f64 / 1e6).collect();
    e2e.set("sim_p50_mcyc", percentile(mcyc.clone(), 50.0));
    e2e.set("sim_p99_mcyc", percentile(mcyc, 99.0));
}

/// Per-architecture compiler, core and component metrics over one
/// pass's plan runs; phase metrics come from query `phase_query`.
fn plan_layers<P>(ctx: &mut Ctx, timed: &Timed<P>, runs: &[PlanRun], phase_query: usize) {
    let spans = &ctx.spans;
    let m = &mut ctx.per_layer;
    for (arch, a) in Arch::ALL.into_iter().zip(ARCH_TAGS) {
        let instrs: u64 = runs
            .iter()
            .filter(|r| r.arch == arch)
            .map(|r| r.instrs)
            .sum();
        let lower_ms = timed.traced_median(|r| spans.total_ms(r, "compile", Some(a)));
        m.set(format!("compiler.lower_ms.{a}"), lower_ms);
        m.set(format!("compiler.instrs.{a}"), instrs as f64);
        m.set(
            format!("compiler.ns_per_instr.{a}"),
            ratio(lower_ms * 1e6, instrs as f64),
        );
        // Component counters of the single-engine runs on this machine.
        let single: Vec<&PlanRun> = runs.iter().filter(|r| r.tag == a).collect();
        let sum = |f: &dyn Fn(&RunReport) -> u64| {
            single
                .iter()
                .filter_map(|r| r.report.as_ref())
                .map(f)
                .sum::<u64>() as f64
        };
        m.set(format!("cpu.ops.{a}"), sum(&|r| r.core.ops));
        m.set(format!("hmc.activations.{a}"), sum(&|r| r.hmc.activations));
        m.set(format!("hmc.link_bytes.{a}"), sum(&|r| r.hmc.link_bytes));
        let phased = single
            .iter()
            .find(|r| r.query == phase_query)
            .and_then(|r| r.report.as_ref());
        if let Some(r) = phased {
            m.set(format!("phase.dispatch_cyc.{a}"), r.phases.dispatch as f64);
            m.set(format!("phase.scan_cyc.{a}"), r.phases.scan as f64);
            m.set(
                format!("phase.gather_cyc.{a}"),
                r.phases.gather_aggregate as f64,
            );
        }
        match arch {
            Arch::HostX86 => {
                let l1_hits = sum(&|r| r.cache.map_or(0, |c| c.l1_hits));
                let l1_misses = sum(&|r| r.cache.map_or(0, |c| c.l1_misses));
                let prefetches = sum(&|r| r.cache.map_or(0, |c| c.prefetches));
                let prefetch_hits = sum(&|r| r.cache.map_or(0, |c| c.prefetch_hits));
                m.set("cpu.mispredicts.x86", sum(&|r| r.core.mispredicts));
                m.set(
                    "cache.accesses.x86",
                    sum(&|r| r.cache.map_or(0, |c| c.accesses)),
                );
                m.set(
                    "cache.l1_hit_ratio.x86",
                    ratio(l1_hits, l1_hits + l1_misses),
                );
                m.set(
                    "cache.prefetch_useful_ratio.x86",
                    ratio(prefetch_hits, prefetches),
                );
            }
            Arch::HmcIsa => m.set("hmc.fu_ops.hmcisa", sum(&|r| r.hmc.fu_ops)),
            Arch::Hive | Arch::Hipe => {
                let instructions = sum(&|r| r.engine.map_or(0, |e| e.instructions));
                m.set(format!("logic.instructions.{a}"), instructions);
                m.set(
                    format!("logic.dram_loads.{a}"),
                    sum(&|r| r.engine.map_or(0, |e| e.dram_loads)),
                );
                if arch == Arch::Hipe {
                    let squashed = sum(&|r| r.engine.map_or(0, |e| e.squashed));
                    m.set("logic.squash_ratio.hipe", ratio(squashed, instructions));
                }
            }
        }
    }
    for t in RUN_TAGS {
        let mine: Vec<&RunReport> = runs
            .iter()
            .filter(|r| r.tag == t)
            .filter_map(|r| r.report.as_ref())
            .collect();
        if mine.is_empty() {
            continue;
        }
        // Simulated instructions: core micro-ops on the host-driven
        // machines, engine instructions on the logic-layer ones.
        let sim_instrs: u64 = mine
            .iter()
            .map(|r| r.engine.map_or(r.core.ops, |e| e.instructions))
            .sum();
        let ms = timed.traced_median(|r| spans.total_ms(r, "run_plan", Some(t)));
        m.set(format!("core.run_plan_ms.{t}"), ms);
        m.set(
            format!("core.ns_per_sim_instr.{t}"),
            ratio(ms * 1e6, sim_instrs as f64),
        );
    }
    let pruned: u64 = runs.iter().map(|r| r.regions_pruned).sum();
    let total: u64 = runs.iter().map(|r| r.regions_total).sum();
    m.set(
        "compiler.regions_pruned_ratio",
        ratio(pruned as f64, total as f64),
    );
}

/// The paper's evaluation: one warm session over a uniform SF-0.1
/// table, five queries compiled and run on all four machines, plus Q6
/// on an eight-engine HIPE.
pub(crate) fn scan_sweep(ctx: &mut Ctx) -> (usize, u64, (usize, usize), Vec<f64>) {
    let rows = rows_at(0.1, ctx.opts.scale);
    let cfg = SystemConfig::paper(rows, ctx.opts.seed);
    let p8_cfg = SystemConfig {
        partitions: 8,
        ..cfg.clone()
    };
    let queries = [
        Query::quantity_below_permille(20),
        Query::quantity_below_permille(100),
        Query::quantity_below_permille(500),
        Query::quantity_below_permille(100).with_aggregate(),
        Query::q6(),
    ];
    const Q6: usize = 4;

    for _ in 1..SETUP_REPS {
        let rep = Setups::begin(&mut ctx.spans);
        let sys = open_system(&mut ctx.spans, &cfg);
        let p8 = open_system(&mut ctx.spans, &p8_cfg);
        let _session = open_session(&mut ctx.spans, &sys);
        let _p8_session = open_session(&mut ctx.spans, &p8);
        ctx.setups.end(&mut ctx.spans, rep);
    }
    let rep = Setups::begin(&mut ctx.spans);
    let sys = open_system(&mut ctx.spans, &cfg);
    let p8 = open_system(&mut ctx.spans, &p8_cfg);
    let mut session = open_session(&mut ctx.spans, &sys);
    let mut p8_session = open_session(&mut ctx.spans, &p8);
    ctx.setups.end(&mut ctx.spans, rep);
    if ctx.opts.trace {
        let _ = probe_table(ctx, rows, TableShape::Uniform);
    }

    let refs: Vec<ScanResult> = queries
        .iter()
        .map(|q| scan::reference(sys.table(), q))
        .collect();
    let timed = measure(
        ctx,
        |spans| {
            let mut runs = Vec::with_capacity(queries.len() * 4 + 1);
            for (qi, q) in queries.iter().enumerate() {
                for arch in Arch::ALL {
                    runs.push(plan_run(spans, &sys, &mut session, arch, tag(arch), qi, q));
                }
            }
            runs.push(plan_run(
                spans,
                &p8,
                &mut p8_session,
                Arch::Hipe,
                "hipe_p8",
                Q6,
                &queries[Q6],
            ));
            runs
        },
        |runs, tally| {
            let mut d = Digest::default();
            check_plan_runs(runs, &refs, tally, &mut d);
            d.value()
        },
    );

    let runs = &timed.first;
    let report = |t: &str, q: usize| {
        runs.iter()
            .find(|r| r.tag == t && r.query == q)
            .and_then(|r| r.report.as_ref())
    };
    let hipe: Vec<(Cycle, f64)> = runs
        .iter()
        .filter(|r| r.arch == Arch::Hipe)
        .filter_map(|r| r.report.as_ref())
        .map(|r| (r.cycles, r.energy.total_pj()))
        .collect();
    let speedups: Vec<f64> = (0..queries.len())
        .filter_map(|q| Some(report("hipe", q)?.speedup_over(report("x86", q)?)))
        .collect();
    stream_metrics(&mut ctx.end_to_end, &hipe, &speedups);
    if ctx.opts.trace {
        plan_layers(ctx, &timed, runs, Q6);
        ctx.per_layer.set(
            "db.materialize_ms",
            ctx.setups.median_ms(&ctx.spans, "session"),
        );
        let image = sys.layout().image_bytes() + p8.layout().image_bytes();
        ctx.per_layer.set("db.image_mib", image as f64 / MIB);
    }
    (rows, timed.digest, timed.passes(), timed.host_s)
}

/// A shipdate-clustered SF-0.4 table with zone-map pruning: three
/// shipdate windows on all four machines, then the 3 % window through a
/// four-shard skipping cluster.
pub(crate) fn skip_clustered(ctx: &mut Ctx) -> (usize, u64, (usize, usize), Vec<f64>) {
    let rows = rows_at(0.4, ctx.opts.scale);
    let shape = TableShape::ClusteredShipdate { total_rows: rows };
    let cfg = SystemConfig {
        shape,
        pruning: true,
        ..SystemConfig::paper(rows, ctx.opts.seed)
    };
    let cluster_cfg = ClusterConfig {
        workers: WORKERS,
        ..ClusterConfig::skipping(rows, ctx.opts.seed, 4)
    };
    // Q6 with its year replaced by a 1 %, 3 % or 10 % shipdate window:
    // the window prunes regions, and the discount and quantity
    // conjuncts make the surviving regions' work depend on the seed.
    let q6 = Query::q6();
    let windows = [10, 30, 100].map(|permille| {
        let window = Query::shipdate_window_permille(permille).predicates()[0];
        Query::new(vec![window, q6.predicates()[1], q6.predicates()[2]], true)
    });
    const W3: usize = 1;
    let build_cluster = |spans: &mut Spans| {
        spans.call("serve", "cluster_build", "", |_| {
            Cluster::with_config(cluster_cfg.clone())
        })
    };

    for _ in 1..SETUP_REPS {
        let rep = Setups::begin(&mut ctx.spans);
        let sys = open_system(&mut ctx.spans, &cfg);
        let cluster = build_cluster(&mut ctx.spans);
        let _session = open_session(&mut ctx.spans, &sys);
        let _cluster_session = ctx
            .spans
            .call("serve", "cluster_session", "", |_| cluster.session());
        ctx.setups.end(&mut ctx.spans, rep);
    }
    let rep = Setups::begin(&mut ctx.spans);
    let sys = open_system(&mut ctx.spans, &cfg);
    let cluster = build_cluster(&mut ctx.spans);
    let mut session = open_session(&mut ctx.spans, &sys);
    let mut cluster_session = ctx
        .spans
        .call("serve", "cluster_session", "", |_| cluster.session());
    ctx.setups.end(&mut ctx.spans, rep);
    if ctx.opts.trace {
        let _ = probe_table(ctx, rows, shape);
    }

    // The cluster's logical table is the system's table, row for row.
    let refs: Vec<ScanResult> = windows
        .iter()
        .map(|q| scan::reference(sys.table(), q))
        .collect();
    let timed = measure(
        ctx,
        |spans| {
            let mut runs = Vec::with_capacity(windows.len() * 4);
            for (qi, q) in windows.iter().enumerate() {
                for arch in Arch::ALL {
                    runs.push(plan_run(spans, &sys, &mut session, arch, tag(arch), qi, q));
                }
            }
            let cluster: Vec<Option<ClusterReport>> = Arch::ALL
                .into_iter()
                .map(|arch| {
                    spans.call("serve", "cluster_run", tag(arch), |_| {
                        guard(|| cluster_session.run(arch, &windows[W3]))
                    })
                })
                .collect();
            (runs, cluster)
        },
        |(runs, cluster), tally| {
            let mut d = Digest::default();
            check_plan_runs(runs, &refs, tally, &mut d);
            for r in cluster {
                tally.run(r.as_ref().is_some_and(|r| r.result == refs[W3]));
                if let Some(r) = r {
                    d.cluster(r);
                }
            }
            d.value()
        },
    );
    let (runs, cluster_first) = &timed.first;
    let mut hipe: Vec<(Cycle, f64)> = runs
        .iter()
        .filter(|r| r.arch == Arch::Hipe)
        .filter_map(|r| r.report.as_ref())
        .map(|r| (r.cycles, r.energy.total_pj()))
        .collect();
    let mut speedups: Vec<f64> = (0..windows.len())
        .filter_map(|q| {
            let find = |a: Arch| {
                runs.iter()
                    .find(|r| r.arch == a && r.query == q)
                    .and_then(|r| r.report.as_ref())
            };
            Some(find(Arch::Hipe)?.speedup_over(find(Arch::HostX86)?))
        })
        .collect();
    let (x86_c, hipe_c) = (&cluster_first[0], &cluster_first[3]);
    if let (Some(x), Some(h)) = (x86_c, hipe_c) {
        let pj: f64 = h.shard_reports.iter().map(|r| r.energy.total_pj()).sum();
        hipe.push((h.cycles, pj));
        speedups.push(x.cycles as f64 / h.cycles.max(1) as f64);
    }
    stream_metrics(&mut ctx.end_to_end, &hipe, &speedups);
    if ctx.opts.trace {
        plan_layers(ctx, &timed, runs, W3);
        let spans = &ctx.spans;
        let m = &mut ctx.per_layer;
        m.set("db.materialize_ms", ctx.setups.median_ms(spans, "session"));
        m.set(
            "serve.cluster_build_ms",
            ctx.setups.median_ms(spans, "cluster_build"),
        );
        m.set(
            "serve.cluster_session_ms",
            ctx.setups.median_ms(spans, "cluster_session"),
        );
        m.set(
            "serve.cluster_run_ms",
            timed.traced_median(|r| spans.total_ms(r, "cluster_run", None)),
        );
        if let Some(h) = hipe_c {
            m.set("serve.shards_skipped", h.shards_skipped() as f64);
        }
        let mut image = sys.layout().image_bytes();
        for s in 0..cluster.shards() {
            image += cluster.shard(s).layout().image_bytes();
        }
        m.set("db.image_mib", image as f64 / MIB);
    }
    (rows, timed.digest, timed.passes(), timed.host_s)
}

/// Closed-loop queries per service run.
const SERVE_QUERIES: usize = 2000;
/// Open-loop queries: enough that p99 has 200 samples beyond it, so
/// it moves little from seed to seed.
const OPEN_QUERIES: usize = 20_000;
/// Closed-loop clients.
const SERVE_CLIENTS: usize = 8;
/// Mean open-loop inter-arrival at full scale, in cycles: about 70 % of
/// HIPE's closed-loop capacity on the SF-0.1 4x2 cluster.
const OPEN_INTERARRIVAL: f64 = 1.0e6;

/// One `run_service` call of a pass.
struct Leg {
    arch: Arch,
    kind: LegKind,
    report: Option<ServiceReport>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LegKind {
    Clean,
    Fault,
    Open,
}

/// A 4-shard x 2-replica cluster over SF-0.1 serving the figures mix:
/// per architecture a fault-free closed loop and the same loop with
/// replica 0 of shard 1 killed at half the clean makespan, then a HIPE
/// open loop at about 70 % load.
pub(crate) fn serve_failover(ctx: &mut Ctx) -> (usize, u64, (usize, usize), Vec<f64>) {
    let rows = rows_at(0.1, ctx.opts.scale);
    let seed = ctx.opts.seed;
    let cluster_cfg = ClusterConfig {
        workers: WORKERS,
        ..ClusterConfig::replicated(rows, seed, 4, 2)
    };
    let mix = vec![
        (Query::q6(), 1),
        (Query::quantity_below_permille(100), 2),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ];
    let closed = |arch| ServiceConfig {
        seed,
        ..ServiceConfig::closed(arch, SERVE_QUERIES, mix.clone(), SERVE_CLIENTS)
    };
    let interarrival = (OPEN_INTERARRIVAL * ctx.opts.scale).round().max(1.0) as Cycle;
    let open = ServiceConfig {
        seed,
        ..ServiceConfig::open(Arch::Hipe, OPEN_QUERIES, mix.clone(), interarrival)
    };
    let build_cluster = |spans: &mut Spans| {
        spans.call("serve", "cluster_build", "", |_| {
            Cluster::with_config(cluster_cfg.clone())
        })
    };

    for _ in 1..SETUP_REPS {
        let rep = Setups::begin(&mut ctx.spans);
        let cluster = build_cluster(&mut ctx.spans);
        let _session = ctx
            .spans
            .call("serve", "cluster_session", "", |_| cluster.session());
        ctx.setups.end(&mut ctx.spans, rep);
    }
    let rep = Setups::begin(&mut ctx.spans);
    let cluster = build_cluster(&mut ctx.spans);
    let mut cluster_session = ctx
        .spans
        .call("serve", "cluster_session", "", |_| cluster.session());
    ctx.setups.end(&mut ctx.spans, rep);

    // Service answers are checked against the reference over the full
    // logical table.
    let table = probe_table(ctx, rows, TableShape::Uniform);
    let refs: Vec<ScanResult> = mix
        .iter()
        .map(|(q, _)| scan::reference(&table, q))
        .collect();
    drop(table);

    let service = |spans: &mut Spans, leg_tag: &'static str, cfg: &ServiceConfig| {
        spans.call("serve", "run_service", leg_tag, |_| {
            guard(|| run_service(&cluster, cfg))
        })
    };
    let timed = measure(
        ctx,
        |spans| {
            let mut legs = Vec::with_capacity(9);
            for arch in Arch::ALL {
                let cfg = closed(arch);
                let clean = service(spans, tag(arch), &cfg);
                let fault = clean.as_ref().and_then(|c| {
                    let cfg = ServiceConfig {
                        faults: vec![FaultPlan::new(1, 0, c.makespan / 2)],
                        ..cfg.clone()
                    };
                    service(spans, tag(arch), &cfg)
                });
                legs.push(Leg {
                    arch,
                    kind: LegKind::Clean,
                    report: clean,
                });
                legs.push(Leg {
                    arch,
                    kind: LegKind::Fault,
                    report: fault,
                });
            }
            let report = service(spans, "open", &open);
            legs.push(Leg {
                arch: Arch::Hipe,
                kind: LegKind::Open,
                report,
            });
            legs
        },
        |legs, tally| {
            let mut d = Digest::default();
            for (i, leg) in legs.iter().enumerate() {
                let ok = leg.report.as_ref().is_some_and(|r| {
                    let queries = if leg.kind == LegKind::Open {
                        OPEN_QUERIES
                    } else {
                        SERVE_QUERIES
                    };
                    let answers_ok = r.answers == refs && r.queries == queries as u64;
                    // The failover answer must equal the clean one.
                    let digest_ok = leg.kind != LegKind::Fault
                        || legs[i - 1]
                            .report
                            .as_ref()
                            .is_some_and(|c| c.answers_digest() == r.answers_digest());
                    answers_ok && digest_ok
                });
                tally.run(ok);
                if let Some(r) = &leg.report {
                    d.service(r);
                }
            }
            d.value()
        },
    );

    // The service's distinct queries, each scattered once on HIPE over
    // the set-up session: the workload's simulated cycles and energy.
    let mut digest = Digest::default();
    digest.word(timed.digest);
    let mut hipe_cycles = 0;
    let mut hipe_pj = 0.0;
    for ((q, _), reference) in mix.iter().zip(&refs) {
        let report = guard(|| cluster_session.run(Arch::Hipe, q));
        ctx.tally
            .run(report.as_ref().is_some_and(|r| &r.result == reference));
        if let Some(r) = report {
            digest.cluster(&r);
            hipe_cycles += r.cycles;
            hipe_pj += r
                .shard_reports
                .iter()
                .map(|s| s.energy.total_pj())
                .sum::<f64>();
        }
    }

    let leg = |arch: Arch, kind: LegKind| {
        timed
            .first
            .iter()
            .find(|l| l.arch == arch && l.kind == kind)
            .and_then(|l| l.report.as_ref())
    };
    let e2e = &mut ctx.end_to_end;
    e2e.set("sim_hipe_mcyc", hipe_cycles as f64 / 1e6);
    e2e.set("sim_hipe_energy_uj", hipe_pj / 1e6);
    if let (Some(x86), Some(hipe)) = (
        leg(Arch::HostX86, LegKind::Clean),
        leg(Arch::Hipe, LegKind::Clean),
    ) {
        e2e.set(
            "sim_speedup_x86",
            x86.makespan as f64 / hipe.makespan.max(1) as f64,
        );
        e2e.set(
            "sim_qpgc",
            ratio(hipe.queries as f64 * 1e9, hipe.makespan as f64),
        );
    }
    if let Some(open) = leg(Arch::Hipe, LegKind::Open) {
        e2e.set("sim_p50_mcyc", open.latency.p50 as f64 / 1e6);
        e2e.set("sim_p99_mcyc", open.latency.p99 as f64 / 1e6);
    }

    if ctx.opts.trace {
        let spans = &ctx.spans;
        let m = &mut ctx.per_layer;
        m.set(
            "serve.cluster_build_ms",
            ctx.setups.median_ms(spans, "cluster_build"),
        );
        m.set(
            "serve.cluster_session_ms",
            ctx.setups.median_ms(spans, "cluster_session"),
        );
        m.set(
            "db.materialize_ms",
            ctx.setups.median_ms(spans, "cluster_session"),
        );
        let mut image = 0;
        for s in 0..cluster.shards() {
            for r in 0..cluster.replicas() {
                image += cluster.replica(s, r).layout().image_bytes();
            }
        }
        m.set("db.image_mib", image as f64 / MIB);
        for t in ["x86", "hmcisa", "hive", "hipe", "open"] {
            let ms = timed.traced_median(|r| spans.total_ms(r, "run_service", Some(t)));
            m.set(format!("serve.run_service_ms.{t}"), ms);
        }
        if let Some(c) = leg(Arch::Hipe, LegKind::Clean) {
            let cubes = (c.shards * c.replicas) as f64;
            let busy: u64 = c.replica_busy.iter().flatten().sum();
            m.set("serve.materializations", c.materializations as f64);
            m.set(
                "serve.replica_util",
                ratio(busy as f64, cubes * c.makespan as f64),
            );
            m.set(
                "serve.frontend_util",
                ratio(c.frontend_busy as f64, c.makespan as f64),
            );
        }
        // Lowerings across the first pass, which starts from cold plan
        // caches; later passes reuse the cluster's cached plans.
        let compilations: u64 = timed
            .first
            .iter()
            .filter_map(|l| l.report.as_ref())
            .map(|r| r.compilations)
            .sum();
        m.set("serve.compilations", compilations as f64);
        if let Some(o) = leg(Arch::Hipe, LegKind::Open) {
            m.set(
                "serve.admission_stall_mcyc",
                ratio(o.admission_stall as f64 / 1e6, o.queries as f64),
            );
            m.set(
                "serve.subquery_p99_mcyc",
                o.subquery_latency.p99 as f64 / 1e6,
            );
        }
        if let Some(f) = leg(Arch::Hipe, LegKind::Fault) {
            m.set("serve.failovers", f.failovers as f64);
            m.set("serve.redispatched", f.redispatched as f64);
            let fault_cfg = ServiceConfig {
                faults: vec![FaultPlan::new(
                    1,
                    0,
                    leg(Arch::Hipe, LegKind::Clean).map_or(0, |c| c.makespan) / 2,
                )],
                ..closed(Arch::Hipe)
            };
            trace_overhead(ctx, &cluster, &fault_cfg, &refs);
        }
    }
    (rows, digest.value(), timed.passes(), timed.host_s)
}

/// Times `run_service_traced` into a cycle-domain `Tracer` against
/// `run_service` on the same configuration, alternating, three times
/// each.
fn trace_overhead(ctx: &mut Ctx, cluster: &Cluster, cfg: &ServiceConfig, refs: &[ScanResult]) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut events = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let report = guard(|| run_service(cluster, cfg));
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.tally.run(report.is_some_and(|r| r.answers == refs));
        let mut tracer = Tracer::new();
        let t = Instant::now();
        let report = guard(|| run_service_traced(cluster, cfg, Some(&mut tracer)));
        traced.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.tally.run(report.is_some_and(|r| r.answers == refs));
        events = tracer.len();
    }
    let (plain, traced) = (crate::median(plain), crate::median(traced));
    ctx.per_layer.set("trace.service_traced_ms", traced);
    ctx.per_layer
        .set("trace.overhead_ratio", ratio(traced, plain) - 1.0);
    ctx.per_layer.set("trace.events", events as f64);
}
