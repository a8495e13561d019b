//! Paper-figure sweep: all four machines over scan selectivities,
//! plus the partitioned-execution sweep.
//!
//! Reproduces the shape of the paper's evaluation on the select-scan
//! workload: for each selectivity point the same query runs end to end
//! on the x86 baseline, the stock HMC atomic ISA, HIVE and HIPE —
//! all through **one** `hipe::Session` (a single materialization) —
//! and the table reports simulated cycles, HIPE's
//! speedup and DRAM/link energy ratios.
//!
//! A second sweep (`par_1` / `par_2` / `par_4` / `par_8`) runs Q6 on
//! HIVE and HIPE with that many vault-group engines, showing the
//! near-linear scan-phase scaling and the knee where the shared link
//! and readback bandwidth takes over. Each partition count is its own
//! `System` (the partitioned layout pads areas to vault sweeps), so
//! each pays one materialization.
//!
//! A third sweep (`serve_1` / `serve_2` / `serve_4`) drives the
//! `hipe-serve` service scheduler: a fixed closed-loop load (a
//! weighted query mix over saturating clients) against a sharded
//! cluster of that many cubes, reporting service throughput
//! (queries per gigacycle) and p50/p95/p99 latency. Two replication
//! points extend it: `serve_4x2` doubles every shard to two replica
//! cubes (throughput must reach ≥ 1.7× of `serve_4`), and
//! `serve_fail` re-runs that cluster with replica 0 of shard 1 killed
//! fail-stop at half the clean makespan — on every architecture the
//! failover run's answer digest must equal the fault-free run's.
//!
//! A fourth sweep (`skip_1%` / `skip_3%` / `skip_10%`) runs a
//! shipdate window at that selectivity against a shipdate-clustered
//! table twice — with zone-map pruning on and off — on all four
//! machines, recording both runs in one row (the unpruned run under
//! the `base.` prefix). A `serve_skip` row drives
//! the same window through a 4-shard cluster whose scatter path
//! consults the shard rollups, reporting how many shards were never
//! scattered to. `check_figures` requires pruned cycles to never
//! exceed the unpruned baseline and the ≤ 3 % rows to cut scan and
//! dispatch completion by at least 1.5x.
//!
//! A final row (`host_par`) runs the same four-arch batch and the same
//! 4-shard cluster scatter once on a 1-worker pool and once on a
//! 4-worker pool, each leg on a system or cluster of its own built
//! untimed, and records an FNV digest of each leg's results —
//! the digests must match exactly (parallel co-simulation is
//! bit-identical to serial). The legs' host wall-clock is printed, not
//! recorded: after the file is written, the run fails if a 4-worker
//! leg was slower than its serial leg on a host with two or more CPUs
//! (`hipe_bench::host_par_not_slower`).
//!
//! Besides the human-readable table, all sweeps are written to
//! `BENCH_figures.json` (override the path with `HIPE_BENCH_JSON`).
//! Its header's `machine` object holds the energy constants
//! (`EnergyModel::metrics`, in tenths of a pJ) every run's energy is
//! priced with. Every row is `{name, config, metrics}`: `config` holds
//! what the row asked for (`query`, `shards`, `replicas`, `workers`)
//! and `metrics` the reports' own projections (`RunReport::metrics`,
//! `ServiceReport::metrics`, `ClusterReport::metrics`), each under its
//! row prefix: `arch.HIPE.` for a machine's run or service,
//! `base.arch.HIPE.` for the unpruned skip baseline, and
//! `clean.arch.HIPE.` / `fault.arch.HIPE.` for the failover pair. This
//! file spells no metric name except `host_par`'s digests.
//! `check_figures` validates the file (`par_*` cycles fall
//! monotonically with the engine count, `serve_*` throughput rises
//! monotonically with the shard and replica count, the `serve_fail`
//! digests match their clean counterparts, every run keeps the report
//! invariants and re-prices to its energy, and so on). The file holds
//! simulated results only, so it is a pure function of the row count
//! and the seed: CI regenerates it serially and at 4 workers and
//! `cmp`s both runs against the committed copy.
//!
//! Run with `cargo bench -p hipe-bench --bench figures`; scale the
//! table with `HIPE_BENCH_ROWS` or `HIPE_BENCH_SF`, and fan the
//! sweeps out over host threads with `HIPE_WORKERS`.

// The bench harness is the terminal boundary of the workspace: the
// library-wide print lints stop here.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use hipe::{Arch, RunReport, Session, System, SystemConfig, TableShape};
use hipe_db::scan::ScanResult;
use hipe_db::Query;
use hipe_hmc::EnergyModel;
use hipe_serve::{run_service, Cluster, ClusterConfig, FaultPlan, ServiceConfig, ServiceReport};
use hipe_sim::{fnv1a, WorkerPool};
use hipe_trace::{json, Value};
use std::time::Instant;

const SEED: u64 = 2018;

/// Queries served per service-sweep point.
const SERVE_QUERIES: usize = 96;

/// Closed-loop clients driving the service sweep (enough to saturate
/// every shard count in the sweep).
const SERVE_CLIENTS: usize = 8;

/// Worker width of the `host_par` speedup row's parallel leg (the
/// serial leg always runs on 1 worker, whatever `HIPE_WORKERS` says).
const HOST_PAR_WORKERS: usize = 4;

fn main() {
    hipe_bench::print_header("figures");
    let rows = hipe_bench::bench_rows();
    let pool = WorkerPool::from_env();
    let sys = System::new(rows, SEED);
    println!("# four-machine select scan sweep, {rows} rows, one warm session per worker");
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "query",
        "sel%",
        "x86_cyc",
        "hmcisa_cyc",
        "hive_cyc",
        "hipe_cyc",
        "speedup",
        "dramE",
        "linkE"
    );

    // Quantity is uniform in 1..=50, so achievable selectivities move
    // in 2 % steps; permille 0 is the all-squash extreme.
    let mut points: Vec<(String, Query)> = [0, 20, 60, 100, 300, 500, 1000]
        .into_iter()
        .map(|pm| {
            (
                format!("sel_{:.0}%", pm as f64 / 10.0),
                Query::quantity_below_permille(pm),
            )
        })
        .collect();
    // Aggregate sweep: the same selectivity knob with the Q6-shaped
    // SUM(l_extendedprice * l_discount) attached. HIVE/HIPE run these
    // fused in the logic layer (per-region partials read back over the
    // links); x86 and the HMC ISA pay the per-tuple host gather.
    for pm in [20, 100, 500] {
        points.push((
            format!("agg_{:.0}%", pm as f64 / 10.0),
            Query::quantity_below_permille(pm).with_aggregate(),
        ));
    }
    points.push(("q6".to_string(), Query::q6()));

    let mut json_points = Vec::with_capacity(points.len());
    // Each worker opens its own warm session over the shared system
    // (sessions are `Send`, the `System` is `Sync`); points fan out
    // over the pool and gather in point order, so the table and JSON
    // are identical at every worker width.
    let sweep_results: Vec<(String, Query, Vec<RunReport>)> = pool.run_with(
        points,
        || sys.session(),
        |session, _, (name, query)| {
            let reports = run_all(session, &query);
            for r in &reports {
                assert_eq!(
                    r.result.bitmask, reports[0].result.bitmask,
                    "architectures diverged on {name}"
                );
            }
            (name, query, reports)
        },
    );
    for (name, query, reports) in &sweep_results {
        let [base, hmc, hive, hipe] = &reports[..] else {
            unreachable!("one report per architecture");
        };
        println!(
            "{:<12} {:>6.2} {:>12} {:>12} {:>12} {:>12} {:>7.2}x {:>8.2} {:>8.2}",
            name,
            100.0 * hipe.selectivity(),
            base.cycles,
            hmc.cycles,
            hive.cycles,
            hipe.cycles,
            hipe.speedup_over(base),
            hipe.energy.dram_pj() / base.energy.dram_pj(),
            hipe.energy.link_pj() / base.energy.link_pj(),
        );
        json_points.push(row(name, [query_config(query)], arch_runs("", reports)));
    }
    // One materialization per worker that actually ran a point — and
    // exactly one on the historical serial path.
    let mats = sys.materializations();
    assert!(
        (1..=pool.workers() as u64).contains(&mats),
        "the sweep re-materialized ({mats} materializations, {} workers)",
        pool.workers()
    );

    // Partition sweep: Q6 on the logic machines with 1/2/4/8
    // vault-group engines. Only HIVE/HIPE appear in these rows — the
    // host-driven machines have no engine cluster to partition.
    println!("# partitioned Q6 sweep (HIVE/HIPE, one system per engine count)");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "point", "hive_scan", "hive_cyc", "hipe_scan", "hipe_cyc", "speedup"
    );
    let q6 = Query::q6();
    // One independent system per engine count: the four points fan out
    // over the pool (each worker builds, materializes and runs its own
    // cube) and gather in engine-count order.
    let par_results: Vec<(usize, Vec<RunReport>)> = pool.run(vec![1usize, 2, 4, 8], |_, n| {
        let psys = System::partitioned(rows, SEED, n);
        let mut psession = psys.session();
        let reports: Vec<RunReport> = [Arch::Hive, Arch::Hipe]
            .iter()
            .map(|&arch| psession.run(arch, &q6))
            .collect();
        assert_eq!(
            reports[0].result.bitmask, reports[1].result.bitmask,
            "logic machines diverged at {n} partitions"
        );
        assert_eq!(psys.materializations(), 1);
        (n, reports)
    });
    let hipe_scan_1 = par_results[0].1[1].phases.scan;
    for (n, reports) in &par_results {
        let [hive, hipe] = &reports[..] else {
            unreachable!("one report per logic machine");
        };
        let name = format!("par_{n}");
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>7.2}x",
            name,
            hive.phases.scan,
            hive.cycles,
            hipe.phases.scan,
            hipe.cycles,
            hipe_scan_1 as f64 / hipe.phases.scan.max(1) as f64,
        );
        json_points.push(row(&name, [query_config(&q6)], arch_runs("", reports)));
    }

    // Service sweep: the same saturating closed-loop load against 1,
    // 2 and 4 cube shards on HIPE, then against 4 shards x 2 replicas.
    // Throughput (queries per gigacycle) must not fall as shards are
    // added, and each scattered sub-query goes to one replica per
    // shard, so the replicas serve concurrently and owe at least 1.7x
    // of serve_4's throughput. Both are check_figures' invariants — a
    // dip must surface as its structured CI failure over the written
    // JSON, not as a mid-sweep panic that leaves stale figures.
    println!(
        "# sharded service sweep (HIPE closed loop, {SERVE_QUERIES} queries, \
         {SERVE_CLIENTS} clients)"
    );
    println!(
        "{:<12} {:>8} {:>14} {:>10} {:>10} {:>10}",
        "point", "shards", "q_per_Gcyc", "p50", "p95", "p99"
    );
    let mix = vec![
        (Query::q6(), 1),
        (Query::quantity_below_permille(100), 2),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ];
    let closed = |arch| ServiceConfig::closed(arch, SERVE_QUERIES, mix.clone(), SERVE_CLIENTS);
    let mut last = None;
    for (n, replicas) in [(1, 1), (2, 1), (4, 1), (4, 2)] {
        let cluster = Cluster::replicated(rows, SEED, n, replicas);
        let report = run_service(&cluster, &closed(Arch::Hipe));
        assert_eq!(report.queries, SERVE_QUERIES as u64);
        let name = match replicas {
            1 => format!("serve_{n}"),
            _ => format!("serve_{n}x{replicas}"),
        };
        let runs = [run("", report.arch, report.metrics())];
        json_points.push(serve_row(&name, &report, runs, String::new()));
        last = Some((cluster, report));
    }
    let (cluster, replicated) = last.expect("the service sweep ran");

    // Failover point: the replicated cluster again, with replica 0 of
    // shard 1 killed fail-stop at half the clean makespan. Sub-queries
    // lost on the dark replica are re-dispatched to its survivor, and
    // the service answer must come out bit-identical on every
    // architecture — the per-arch clean and fault answer digests are
    // what check_figures compares.
    let mut runs = Vec::new();
    let mut hipe_failed = None;
    for arch in Arch::ALL {
        let clean = if matches!(arch, Arch::Hipe) {
            replicated.clone()
        } else {
            run_service(&cluster, &closed(arch))
        };
        let failed = run_service(
            &cluster,
            &ServiceConfig {
                faults: vec![FaultPlan::new(1, 0, clean.makespan / 2)],
                ..closed(arch)
            },
        );
        assert_eq!(
            failed.answers, clean.answers,
            "{arch}: failover changed the service answer"
        );
        runs.push(run("clean.", arch, clean.metrics()));
        runs.push(run("fault.", arch, failed.metrics()));
        if matches!(arch, Arch::Hipe) {
            hipe_failed = Some(failed);
        }
    }
    let failed = hipe_failed.expect("HIPE is in Arch::ALL");
    let (failovers, redispatched) = (failed.failovers, failed.redispatched);
    let note = format!("  ({failovers} failover, {redispatched} redispatched)");
    json_points.push(serve_row("serve_fail", &failed, runs, note));

    // Zone-map skip sweep: the same shipdate window runs pruned and
    // unpruned against one shipdate-clustered table per mode, on all
    // four machines. Pruning must never change the answer (asserted
    // here) and never add cycles; at low selectivity it must cut the
    // scan and dispatch phases — check_figures enforces both over the
    // written JSON.
    println!("# zone-map skip sweep (clustered shipdate, pruned vs unpruned)");
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "point", "sel%", "hipe_cyc", "base_cyc", "scan_x", "scanned", "pruned"
    );
    let clustered = |pruning: bool| {
        let mut cfg = SystemConfig::paper(rows, SEED);
        cfg.shape = TableShape::ClusteredShipdate { total_rows: rows };
        cfg.pruning = pruning;
        System::with_config(cfg)
    };
    let pruned_sys = clustered(true);
    let full_sys = clustered(false);
    let mut pruned_session = pruned_sys.session();
    let mut full_session = full_sys.session();
    for pm in [10, 30, 100] {
        let name = format!("skip_{:.0}%", pm as f64 / 10.0);
        let query = Query::shipdate_window_permille(pm);
        let pruned_reports = run_all(&mut pruned_session, &query);
        let full_reports = run_all(&mut full_session, &query);
        for (p, u) in pruned_reports.iter().zip(&full_reports) {
            assert_eq!(
                p.result, u.result,
                "pruning changed the answer on {name} ({})",
                p.arch
            );
        }
        let (hipe, base) = (&pruned_reports[3], &full_reports[3]);
        println!(
            "{:<12} {:>6.2} {:>12} {:>12} {:>7.2}x {:>10} {:>10}",
            name,
            100.0 * hipe.selectivity(),
            hipe.cycles,
            base.cycles,
            base.phases.scan as f64 / hipe.phases.scan.max(1) as f64,
            hipe.regions_scanned,
            hipe.regions_pruned,
        );
        let runs = arch_runs("", &pruned_reports).chain(arch_runs("base.", &full_reports));
        json_points.push(row(&name, [query_config(&query)], runs));
    }
    assert_eq!(
        pruned_sys.materializations(),
        1,
        "the skip sweep re-materialized"
    );

    // Serve skip row: the 3 % window fits inside one shard of the
    // 4-way clustered split, so the scatter path consults the shard
    // rollups and never dispatches to the others. The unpruned
    // clustered cluster answers identically — the skipping run just
    // stops scattering.
    let skipping_cluster = Cluster::with_config(ClusterConfig::skipping(rows, SEED, 4));
    let full_cluster = Cluster::with_config(ClusterConfig {
        clustered: true,
        ..ClusterConfig::new(rows, SEED, 4)
    });
    let query = Query::shipdate_window_permille(30);
    let skip_report = skipping_cluster.run(Arch::Hipe, &query);
    let full_report = full_cluster.run(Arch::Hipe, &query);
    assert_eq!(
        skip_report.result, full_report.result,
        "shard skipping changed the cluster answer"
    );
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>10}",
        "serve_skip",
        4,
        skip_report.cycles,
        full_report.cycles,
        skip_report.shards_skipped(),
    );
    let runs = [
        run("", skip_report.arch, skip_report.metrics()),
        run("base.", full_report.arch, full_report.metrics()),
    ];
    let config = [query_config(&query), ("shards", 4usize.into())];
    json_points.push(row("serve_skip", config, runs));

    // Host-parallel row: the same four-arch batch and the same 4-shard
    // scatter, once on a 1-worker pool and once on a 4-worker pool.
    // Simulated results must be bit-identical (the digests pin it, here
    // and in check_figures); only host wall-clock may differ, and it is
    // printed here but never written to the file.
    println!("# host-parallel co-simulation ({HOST_PAR_WORKERS} workers vs serial)");
    println!(
        "{:<12} {:>14} {:>16} {:>16} {:>18} {:>10}",
        "point", "sweep_ser_ms", "sweep_par_ms", "scatter_ser_ms", "scatter_par_ms", "speedup"
    );
    let hp_queries = [Query::q6(), Query::quantity_below_permille(100)];
    // Each leg builds its own system, untimed, as each scatter leg
    // builds its own cluster: on the sweep's system every x86 and
    // HMC-ISA run would replay a timing the point sweep recorded, and
    // on one shared system the second leg would replay the first's.
    let sweep_leg = |workers: usize| -> (u64, f64) {
        let leg_pool = WorkerPool::new(workers);
        let sys = System::new(rows, SEED);
        let jobs: Vec<(Arch, &Query)> = Arch::ALL
            .iter()
            .flat_map(|&arch| hp_queries.iter().map(move |q| (arch, q)))
            .collect();
        let start = Instant::now();
        let reports = leg_pool.run_with(
            jobs,
            || sys.session(),
            |session, _, (arch, query)| session.run(arch, query),
        );
        let wall = start.elapsed();
        let digest = digest_runs(reports.iter().map(|r| (r.cycles, &r.result)));
        (digest, wall.as_secs_f64() * 1e3)
    };
    let scatter_leg = |workers: usize| -> (u64, f64) {
        let cluster = Cluster::with_config(ClusterConfig {
            workers,
            ..ClusterConfig::new(rows, SEED, 4)
        });
        let mut csession = cluster.session();
        let start = Instant::now();
        let reports: Vec<_> = Arch::ALL
            .iter()
            .map(|&arch| csession.run(arch, &q6))
            .collect();
        let wall = start.elapsed();
        let digest = digest_runs(reports.iter().map(|r| (r.cycles, &r.result)));
        (digest, wall.as_secs_f64() * 1e3)
    };
    let (sweep_ser_digest, sweep_ser_ms) = sweep_leg(1);
    let (sweep_par_digest, sweep_par_ms) = sweep_leg(HOST_PAR_WORKERS);
    assert_eq!(
        sweep_ser_digest, sweep_par_digest,
        "parallel sweep diverged from serial"
    );
    let (scatter_ser_digest, scatter_ser_ms) = scatter_leg(1);
    let (scatter_par_digest, scatter_par_ms) = scatter_leg(HOST_PAR_WORKERS);
    assert_eq!(
        scatter_ser_digest, scatter_par_digest,
        "parallel scatter diverged from serial"
    );
    println!(
        "{:<12} {:>14.1} {:>16.1} {:>16.1} {:>18.1} {:>9.2}x",
        "host_par",
        sweep_ser_ms,
        sweep_par_ms,
        scatter_ser_ms,
        scatter_par_ms,
        (sweep_ser_ms + scatter_ser_ms) / (sweep_par_ms + scatter_par_ms).max(1e-9),
    );
    // The two legs' digests are the one figure this file names itself:
    // they fingerprint a batch of runs, not one run or service.
    let legs = [
        ("serial.", sweep_ser_digest ^ scatter_ser_digest),
        ("parallel.", sweep_par_digest ^ scatter_par_digest),
    ];
    let runs = legs.map(|(leg, d)| (leg.to_string(), Value::object([("digest", d.into())])));
    json_points.push(row(
        "host_par",
        [("workers", HOST_PAR_WORKERS.into())],
        runs,
    ));

    // Default next to the workspace root regardless of the bench CWD.
    let path = std::env::var("HIPE_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json").into()
    });
    let archs = Arch::ALL.map(|a| Value::from(a.to_string())).to_vec();
    let doc = Value::object([
        ("bench", "figures".into()),
        ("rows", rows.into()),
        ("seed", SEED.into()),
        ("archs", Value::Array(archs)),
        ("machine", EnergyModel::paper().metrics()),
        ("points", Value::Array(json_points)),
    ]);
    // A failed write must fail the run: `check_figures` would otherwise
    // validate the stale file left at `path`.
    if let Err(e) = std::fs::write(&path, json::write(&doc)) {
        panic!("could not write {path}: {e}");
    }
    println!("# wrote {path}");

    // host_par's wall-clock rule runs only once the file is written, so
    // a slow leg fails the run without blocking a regeneration. A
    // single-CPU host cannot show a parallel win, so it is waived there.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let legs = [
        ("sweep", sweep_ser_ms, sweep_par_ms),
        ("scatter", scatter_ser_ms, scatter_par_ms),
    ];
    if let Err(e) = hipe_bench::host_par_not_slower(HOST_PAR_WORKERS, host_cpus, &legs) {
        eprintln!("figures: FAIL: {e} ({host_cpus} host CPUs)");
        std::process::exit(1);
    }
}

/// `query` on every machine, in `Arch::ALL` order.
fn run_all(session: &mut Session, query: &Query) -> Vec<RunReport> {
    Arch::ALL.map(|arch| session.run(arch, query)).to_vec()
}

/// FNV-1a digest over a batch of `(cycles, result)` runs: simulated
/// cycles plus the full functional result (match count, aggregate,
/// mask words). Equal digests mean the batches are bit-identical in
/// everything the figures record.
fn digest_runs<'a>(runs: impl Iterator<Item = (u64, &'a ScanResult)>) -> u64 {
    fnv1a(runs.flat_map(|(cycles, result)| {
        let aggregate = result.aggregate.unwrap_or(0) as u64;
        let words = result.bitmask.words().iter().copied();
        [cycles, result.matches as u64, aggregate]
            .into_iter()
            .chain(words)
    }))
}

/// One figures row: its `name`, what was asked (`config`) and what
/// its runs measured, each `(prefix, metrics)` projection's members
/// under its prefix, in the given order.
fn row<'a>(
    name: &str,
    config: impl IntoIterator<Item = (&'a str, Value)>,
    runs: impl IntoIterator<Item = (String, Value)>,
) -> Value {
    let metrics = runs
        .into_iter()
        .flat_map(|(prefix, m)| hipe_bench::prefixed(prefix, m));
    Value::object([
        ("name", name.into()),
        ("config", Value::object(config)),
        ("metrics", Value::object(metrics)),
    ])
}

/// A run's metrics under `{variant}arch.{arch}.`: `variant` is empty,
/// or names which of a row's two runs per machine it is (`base.` for
/// the unpruned skip baseline, `clean.`/`fault.` for failover).
fn run(variant: &str, arch: Arch, metrics: Value) -> (String, Value) {
    (format!("{variant}arch.{arch}."), metrics)
}

/// Every report's run metrics, in sweep order.
fn arch_runs<'a>(
    variant: &'a str,
    reports: &'a [RunReport],
) -> impl Iterator<Item = (String, Value)> + 'a {
    reports
        .iter()
        .map(move |r| run(variant, r.arch, r.metrics()))
}

fn query_config(query: &Query) -> (&'static str, Value) {
    ("query", query.to_string().into())
}

/// Prints one service row of the table, `note` appended, and returns
/// its figures row: the cluster shape asked for, and `runs`.
fn serve_row(
    name: &str,
    report: &ServiceReport,
    runs: impl IntoIterator<Item = (String, Value)>,
    note: String,
) -> Value {
    let shards = match report.replicas {
        1 => report.shards.to_string(),
        r => format!("{}x{r}", report.shards),
    };
    let (qpgc, l) = (report.queries_per_gigacycle(), &report.latency);
    let (p50, p95, p99) = (l.p50, l.p95, l.p99);
    println!("{name:<12} {shards:>8} {qpgc:>14} {p50:>10} {p95:>10} {p99:>10}{note}");
    let config = [
        ("shards", report.shards.into()),
        ("replicas", report.replicas.into()),
    ];
    row(name, config, runs)
}
