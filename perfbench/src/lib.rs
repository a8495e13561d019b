//! The repository benchmark: three workloads driven through the public
//! API of the HIPE reproduction, measured on both of its clocks.
//!
//! * *Simulated cycles* (`sim_*` metrics) are the model's results. The
//!   simulator is deterministic, so they repeat exactly for a seed, and
//!   the run's simulated-statistics digest pins every one of them.
//! * *Host wall-clock* (`host_s`, `setup_s`) and peak memory
//!   (`peak_rss_mib`) are how fast and how large the simulator runs;
//!   they carry the host's noise. `host_s` is the run's fastest
//!   untraced pass and `setup_s` its fastest set-up repetition.
//!
//! The model is **unvalidated**: the repository holds no reference
//! numbers from real hardware or from the paper, so no error figure is
//! given beside any simulated speed-up. Modelled caches, cube timing and
//! energy meters start empty on every run: each run goes through the
//! session reset protocol, and every pass is checked to reproduce the
//! first pass's digest, which ran on freshly materialized sessions.
//!
//! An untraced run prints the end-to-end metrics; a traced run repeats
//! the same calls, records host-clock spans around each call into a
//! layer ([`spans`]) and prints the per-layer metrics. The binary prints
//! each metric as a name and a value; `perfbench/run.py` attaches the
//! units `BENCHMARK.json` declares and the layer map it keeps.

pub mod digest;
pub mod spans;
mod workloads;

use spans::Spans;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Q6 evaluation on all four machines.
    ScanSweep,
    /// A replicated service with a replica killed mid-run.
    ServeFailover,
    /// Zone-map pruning over a shipdate-clustered table.
    SkipClustered,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ScanSweep,
        Workload::ServeFailover,
        Workload::SkipClustered,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanSweep => "scan_sweep",
            Workload::ServeFailover => "serve_failover",
            Workload::SkipClustered => "skip_clustered",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the generated table and of the service's arrival and
    /// mix draws.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Multiplier on the workload's table size (1 is the benchmark;
    /// the smoke test runs tiny tables).
    pub scale: f64,
}

/// Host worker threads of every pool a workload uses: set explicitly,
/// and never more than a host has CPUs.
pub const WORKERS: usize = 1;

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Rows of the workload's logical table.
    pub rows: usize,
    /// Runs (query executions or service runs) attempted.
    pub attempted: u64,
    /// Runs whose answer differed from the reference, that panicked,
    /// or whose simulated statistics differed from the first pass's.
    pub failed: u64,
    /// Host seconds of each untraced timed pass, in order.
    pub pass_s: Vec<f64>,
    /// Timed passes (untraced, traced).
    pub passes: (usize, usize),
    /// Digest of every simulated statistic of the first pass.
    pub digest: u64,
    /// End-to-end metric values (untraced runs).
    pub end_to_end: Values,
    /// Per-layer metric values (traced runs).
    pub per_layer: Values,
    /// The host-clock spans recorded by a traced run.
    pub spans: Spans,
}

/// Set-up repetitions per run; `setup_s` is the fastest of them.
pub const SETUP_REPS: usize = 9;

/// Runs one workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut ctx = Ctx {
        opts: opts.clone(),
        spans: Spans::new(opts.trace),
        tally: Tally::default(),
        setups: Setups::default(),
        end_to_end: Values::default(),
        per_layer: Values::default(),
    };
    let (rows, digest, passes, pass_s) = match opts.workload {
        Workload::ScanSweep => workloads::scan_sweep(&mut ctx),
        Workload::ServeFailover => workloads::serve_failover(&mut ctx),
        Workload::SkipClustered => workloads::skip_clustered(&mut ctx),
    };
    ctx.end_to_end.set("setup_s", fastest(&ctx.setups.secs));
    ctx.end_to_end.set("peak_rss_mib", peak_rss_mib());
    Outcome {
        rows,
        pass_s,
        attempted: ctx.tally.attempted,
        failed: ctx.tally.failed,
        passes,
        digest,
        end_to_end: ctx.end_to_end,
        per_layer: ctx.per_layer,
        spans: ctx.spans,
    }
}

/// Metric values collected by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Every recorded metric, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// Span layers whose self time a traced pass reports.
const SELF_LAYERS: [&str; 4] = ["bench", "compiler", "core", "serve"];

/// State threaded through a workload.
pub(crate) struct Ctx {
    pub opts: Opts,
    pub spans: Spans,
    pub tally: Tally,
    pub setups: Setups,
    pub end_to_end: Values,
    pub per_layer: Values,
}

/// Runs attempted and failed.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one run, failed unless `ok`.
    pub fn run(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Wall-clock of each set-up repetition, with its span range.
#[derive(Debug, Default)]
pub(crate) struct Setups {
    pub secs: Vec<f64>,
    pub ranges: Vec<Range<usize>>,
}

/// An open set-up repetition.
pub(crate) struct SetupRep {
    start: Instant,
    from: usize,
    span: Option<usize>,
}

impl Setups {
    /// Starts timing one set-up repetition.
    pub fn begin(spans: &mut Spans) -> SetupRep {
        let from = spans.mark();
        let span = spans.open("bench", "setup", "");
        SetupRep {
            start: Instant::now(),
            from,
            span,
        }
    }

    /// Ends the repetition `begin` started.
    pub fn end(&mut self, spans: &mut Spans, rep: SetupRep) {
        self.secs.push(rep.start.elapsed().as_secs_f64());
        spans.close(rep.span);
        self.ranges.push(rep.from..spans.mark());
    }

    /// Median over repetitions of the milliseconds spent in spans named
    /// `name`.
    pub fn median_ms(&self, spans: &Spans, name: &str) -> f64 {
        median(
            self.ranges
                .iter()
                .map(|r| spans.total_ms(r.clone(), name, None))
                .collect(),
        )
    }
}

/// The timed passes of one run.
pub(crate) struct Timed<P> {
    /// The warm-up pass's output, which every later pass must match.
    pub first: P,
    /// Host seconds of each untraced pass.
    pub host_s: Vec<f64>,
    /// Host seconds of each traced pass.
    pub traced_s: Vec<f64>,
    /// Span indices of each traced pass.
    pub traced: Vec<Range<usize>>,
    /// Digest of the first pass's simulated statistics.
    pub digest: u64,
}

impl<P> Timed<P> {
    /// Median over traced passes of `f(span range)`.
    pub fn traced_median(&self, f: impl Fn(Range<usize>) -> f64) -> f64 {
        median(self.traced.iter().map(|r| f(r.clone())).collect())
    }

    /// Passes timed (untraced, traced).
    pub fn passes(&self) -> (usize, usize) {
        (self.host_s.len(), self.traced_s.len())
    }
}

/// Runs one untimed warm-up pass, then timed passes until `seconds`
/// have elapsed. `check` verifies a pass's answers into the tally and
/// returns the digest of its simulated statistics; it runs outside the
/// timed region. A traced run alternates untraced and traced passes,
/// so it can report the span overhead.
pub(crate) fn measure<P>(
    ctx: &mut Ctx,
    mut pass: impl FnMut(&mut Spans) -> P,
    mut check: impl FnMut(&P, &mut Tally) -> u64,
) -> Timed<P> {
    ctx.spans.set_on(false);
    let first = pass(&mut ctx.spans);
    let digest = check(&first, &mut ctx.tally);
    let mut timed = Timed {
        first,
        host_s: Vec::new(),
        traced_s: Vec::new(),
        traced: Vec::new(),
        digest,
    };
    let start = Instant::now();
    for i in 0.. {
        let traced = ctx.opts.trace && i % 2 == 1;
        ctx.spans.set_on(traced);
        let from = ctx.spans.mark();
        let t = Instant::now();
        let out = ctx.spans.call("bench", "pass", "", &mut pass);
        let secs = t.elapsed().as_secs_f64();
        ctx.spans.set_on(false);
        if traced {
            timed.traced_s.push(secs);
            timed.traced.push(from..ctx.spans.mark());
        } else {
            timed.host_s.push(secs);
        }
        if check(&out, &mut ctx.tally) != digest {
            // The simulated statistics moved between passes: some run
            // did not start from the reset state.
            ctx.tally.failed += 1;
        }
        let enough = !timed.host_s.is_empty() && (!ctx.opts.trace || !timed.traced_s.is_empty());
        if enough && start.elapsed().as_secs_f64() >= ctx.opts.seconds {
            break;
        }
    }
    ctx.spans.set_on(ctx.opts.trace);
    // The host is shared and its interference only ever adds time, so
    // the fastest pass is the closest to what the pass itself costs.
    ctx.end_to_end.set("host_s", fastest(&timed.host_s));
    if ctx.opts.trace {
        ctx.per_layer.set(
            "bench.span_overhead_s",
            fastest(&timed.traced_s) - fastest(&timed.host_s),
        );
        for layer in SELF_LAYERS {
            let v = timed.traced_median(|r| ctx.spans.self_ms(r, layer));
            ctx.per_layer.set(format!("self_ms.{layer}"), v);
        }
    }
    timed
}

/// Runs `f`, turning a panic into `None` so the run counts as failed
/// instead of aborting the workload.
pub(crate) fn guard<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value (0 when empty).
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Percentile `p` (0..=100) of `v`, interpolating linearly between the
/// two nearest ranks (0 when empty).
pub(crate) fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let at = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Geometric mean (0 when empty).
pub(crate) fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// This process's peak resident set (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` does not report it (the benchmark
/// runs on Linux).
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("the benchmark needs /proc (Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// Rows of a table at TPC-H scale factor `sf`, times `scale`.
pub(crate) fn rows_at(sf: f64, scale: f64) -> usize {
    ((hipe_db::SF1_ROWS as f64 * sf * scale).round() as usize).max(256)
}
