//! Records a fault-injected closed-loop service run as a Chrome trace.
//!
//! Runs the standard bench mix (Q6 plus two quantity scans) through a
//! small replicated HIPE cluster under a closed loop, kills one
//! replica fail-stop at half the fault-free makespan, and writes the
//! traced run as Chrome Trace Event Format JSON — open the file in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! Timestamps are *simulated cycles* (shown as microseconds by the
//! viewer), one track per shard×replica engine plus admission,
//! front-end and query-lifetime tracks.
//!
//! The emitted file's `otherData` holds the cluster shape, the energy
//! constants (`machine`: `EnergyModel::metrics`) and one `metrics`
//! object: the run's `ServiceReport::metrics` (`serve.*`) plus each
//! shard's Q6 `RunReport::metrics` under a `shard{s}.` prefix.
//! `check_figures --trace` re-derives the service counters from the
//! events — query spans, `fault.kill` instants and `redispatch`
//! instants must reconcile exactly — re-prices each shard's energy
//! from its counters and checks the metrics for consistency.

// The bench harness is the terminal boundary of the workspace: the
// library-wide print lints stop here.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use hipe::Arch;
use hipe_db::Query;
use hipe_hmc::EnergyModel;
use hipe_serve::{run_service, run_service_traced, Cluster, FaultPlan, ServiceConfig};
use hipe_trace::{TraceEvent, Tracer, Value};

const SEED: u64 = 2018;

const HELP: &str = "\
trace_dump — record a fault-injected closed-loop service run as a Chrome trace

USAGE:
    trace_dump [OPTIONS]

OPTIONS:
    --rows N        logical table rows          (default 4096)
    --shards N      shards in the cluster       (default 2)
    --replicas N    replicas backing each shard (default 2)
    --queries N     queries to serve            (default 48)
    --clients N     closed-loop clients         (default 6)
    --no-fault      skip the fail-stop fault injection
    --out PATH      output path (default <workspace>/BENCH_trace.json)
    -h, --help      print this help

The trace is Chrome Trace Event Format JSON in the simulated-cycle
time domain (1 cycle renders as 1 µs): load it in Perfetto or
chrome://tracing. Tracks: admission (arrival/admit instants, a
batch_fill counter), front-end (batch spans, redispatch instants),
queries (one async span per query, arrival to completion), and one
row per shard.replica engine (execute spans with nested
dispatch/scan/gather phases, fault.kill/fault.detect instants).
`otherData.metrics` embeds the ServiceReport counters the events
must reconcile with, verified by `check_figures --trace`.";

struct Opts {
    rows: usize,
    shards: usize,
    replicas: usize,
    queries: usize,
    clients: usize,
    fault: bool,
    out: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        rows: 4096,
        shards: 2,
        replicas: 2,
        queries: 48,
        clients: 6,
        fault: true,
        out: format!("{}/../../BENCH_trace.json", env!("CARGO_MANIFEST_DIR")),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let numeric = |args: &mut dyn Iterator<Item = String>| -> usize {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{arg} needs a numeric value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--rows" => opts.rows = numeric(&mut args),
            "--shards" => opts.shards = numeric(&mut args),
            "--replicas" => opts.replicas = numeric(&mut args),
            "--queries" => opts.queries = numeric(&mut args),
            "--clients" => opts.clients = numeric(&mut args),
            "--no-fault" => opts.fault = false,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            "-h" | "--help" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let cluster = Cluster::replicated(opts.rows, SEED, opts.shards, opts.replicas);
    let mix = vec![
        (Query::q6(), 1),
        (Query::quantity_below_permille(100), 2),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ];
    let cfg = ServiceConfig::closed(Arch::Hipe, opts.queries, mix, opts.clients);

    // Fault-free pass to place the fault at half the makespan, then
    // the traced, fault-injected run. Failover is answer-preserving,
    // so both runs must agree bit for bit.
    let clean = run_service(&cluster, &cfg);
    let cfg = if opts.fault && opts.replicas > 1 {
        ServiceConfig {
            faults: vec![FaultPlan::new(
                (opts.shards - 1).min(1),
                0,
                clean.makespan / 2,
            )],
            ..cfg
        }
    } else {
        cfg
    };
    let mut tracer = Tracer::new();
    let report = run_service_traced(&cluster, &cfg, Some(&mut tracer));
    assert_eq!(
        report.answers_digest(),
        clean.answers_digest(),
        "failover or tracing changed the service answer"
    );

    // The events must already reconcile with the report before the
    // file is written — check_figures --trace re-verifies from JSON.
    let query_spans = tracer
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Span { span, .. } if span.track.index() == 2))
        .count() as u64;
    assert_eq!(query_spans, report.queries, "one lifetime span per query");
    assert_eq!(
        tracer.instants_named("fault.kill") as u64,
        report.failovers,
        "one kill instant per fired fault"
    );
    assert_eq!(
        tracer.instants_named("redispatch") as u64,
        report.redispatched,
        "one redispatch instant per lost sub-query"
    );

    // The service's counters and each shard's Q6 run metrics under a
    // `shard{s}.` prefix, the whole object in name order.
    let q6 = cluster.run(Arch::Hipe, &Query::q6());
    let shards = q6.shard_reports.iter().enumerate();
    let mut metrics: Vec<(String, Value)> = hipe_bench::prefixed(String::new(), report.metrics())
        .chain(shards.flat_map(|(s, r)| hipe_bench::prefixed(format!("shard{s}."), r.metrics())))
        .collect();
    metrics.sort_unstable_by(|a, b| a.0.cmp(&b.0));

    let other_data = Value::object([
        ("arch", report.arch.to_string().into()),
        ("time_unit", "simulated cycles (1 cyc = 1 viewer µs)".into()),
        ("shards", report.shards.into()),
        ("replicas", report.replicas.into()),
        ("events", tracer.len().into()),
        ("machine", EnergyModel::paper().metrics()),
        ("metrics", Value::object(metrics)),
    ]);
    let json = tracer.to_chrome_json(other_data);
    std::fs::write(&opts.out, &json).expect("write trace file");

    println!("{report}");
    println!(
        "trace: {} events on {} tracks -> {}",
        tracer.len(),
        tracer.tracks().len(),
        opts.out
    );
    println!("open in https://ui.perfetto.dev or chrome://tracing (1 cyc = 1 µs)");
}
