//! Command-line entry point of the benchmark: runs one workload and prints
//! a header and, as its last line, the verdict and every metric's value.
//!
//! ```text
//! hipe-perfbench --workload <scan_sweep|serve_failover|skip_clustered>
//!     [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--spans-out PATH]
//! ```
//!
//! The last line is `{"correct": …, "attempted": …, "failed": …,
//! "values": {"<metric>": <value>, …}}`. `perfbench/run.py` builds this
//! binary, runs it, and turns that line into the benchmark's result,
//! with the units `BENCHMARK.json` declares; see `perfbench/README.md`.

// The benchmark's output is its terminal boundary.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use hipe_perfbench::{run, Opts, Outcome, Workload, WORKERS};
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, spans_out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("hipe-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The library sizes some pools from HIPE_WORKERS (table generation
    // inside `System::with_config`); pin it to the benchmark's width
    // before any thread exists.
    std::env::set_var("HIPE_WORKERS", WORKERS.to_string());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let outcome = run(&opts);

    println!(
        "# hipe-perfbench workload={} seed={} rows={} workers={WORKERS} host_cpus={host_cpus} \
         seconds={} trace={} passes={}+{}",
        opts.workload.name(),
        opts.seed,
        outcome.rows,
        opts.seconds,
        u8::from(opts.trace),
        outcome.passes.0,
        outcome.passes.1,
    );
    println!(
        "# model: unvalidated (no reference numbers from hardware or the paper); \
         modelled caches start empty on every run (session reset protocol)"
    );
    println!("# sim_digest: {:016x}", outcome.digest);
    let pass_s: Vec<String> = outcome.pass_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("# host_s per untraced pass: {}", pass_s.join(" "));
    println!(
        "# runs: {} attempted, {} failed (failed_frac {})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    if let Some(path) = spans_out.filter(|_| opts.trace) {
        let json = outcome.spans.to_chrome_json(opts.workload.name());
        match std::fs::write(&path, json) {
            Ok(()) => println!("# host spans: {path}"),
            Err(e) => {
                eprintln!("hipe-perfbench: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // A completed run exits 0; `correct` in the last line carries the
    // verdict of the answer checks.
    println!("{}", last_line(&outcome, opts.trace));
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<(Opts, Option<String>), String> {
    let mut workload = None;
    let mut opts = Opts {
        workload: Workload::ScanSweep,
        seed: 2018,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => opts.scale = value.parse().map_err(|_| bad())?,
            "--spans-out" => spans_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !(opts.scale > 0.0 && opts.seconds >= 0.0) {
        return Err("--scale must be positive and --seconds non-negative".into());
    }
    Ok((opts, spans_out))
}

/// The last output line: the verdict, and the per-layer metrics of a
/// traced run or the end-to-end ones of an untraced run, by name.
fn last_line(outcome: &Outcome, trace: bool) -> String {
    let values = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let mut fields = String::new();
    for (i, (name, v)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `+ 0.0` turns an empty sum's -0.0 into 0.
        let v = if v.is_finite() { v + 0.0 } else { 0.0 };
        write!(fields, "{sep}\"{name}\": {v}").expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"values\": {{{fields}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
    )
}
