//! CI gate for the bench artifacts.
//!
//! Parses `BENCH_figures.json` (`HIPE_BENCH_JSON` if set, else the file
//! at the workspace root) with the strict [`hipe_trace::json`] parser
//! and fails the pipeline when the file is malformed or a sweep breaks
//! its contract; each rule is stated where [`check`] enforces it. The
//! file holds simulated results only; CI also regenerates it and
//! `cmp`s it with the committed copy, which catches any drift. With
//! `--trace [PATH]` it instead validates a `trace_dump` Chrome trace
//! (default `BENCH_trace.json`): sync spans nest inside the makespan,
//! async pairs balance, the events reconcile exactly with the
//! `serve.*` counters in `otherData.metrics`, and its metrics name
//! every shard and agree with each other (see [`check_metrics`] and
//! [`check_invariants`]).
//!
//! Both files carry the machine's energy constants in their header
//! (`machine` in the figures file, `otherData.machine` in the trace),
//! and every run's energy must re-price from its own counters exactly.
//!
//! Every figures row is `{name, config, metrics}`, and both files'
//! `metrics` objects hold the report projections (`RunReport::metrics`,
//! `ServiceReport::metrics`, `ClusterReport::metrics`) under prefixes
//! such as `arch.HIPE.`, `base.arch.HIPE.` or `shard0.`. Rules read
//! them through one dotted-name lookup, [`Metrics`], narrowed by
//! prefix; [`check_invariants`] holds every run and service in either
//! file to the report invariants.

// The bench harness is the terminal boundary of the workspace: the
// library-wide print lints stop here.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use hipe_trace::json::{self, At, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The architecture labels every selectivity point must report, in
/// sweep order.
const ARCHS: [&str; 4] = ["x86", "HMC-ISA", "HIVE", "HIPE"];

/// Point names that make up the aggregate sweep.
const AGGREGATE_POINTS: [&str; 4] = ["agg_2%", "agg_10%", "agg_50%", "q6"];

/// The logic machines the partition sweep reports.
const LOGIC_ARCHS: [&str; 2] = ["HIVE", "HIPE"];

/// The partitioned-execution sweep, in engine-count order.
const PARTITION_POINTS: [&str; 4] = ["par_1", "par_2", "par_4", "par_8"];

/// The sharded service sweep, in cube-count order (the last point
/// doubles the shards of `serve_4` into replicas).
const SERVE_POINTS: [&str; 4] = ["serve_1", "serve_2", "serve_4", "serve_4x2"];

/// The zone-map skip sweep, in selectivity order.
const SKIP_POINTS: [&str; 3] = ["skip_1%", "skip_3%", "skip_10%"];

/// Skip points at ≤ 3 % selectivity, which owe a ≥ 1.5x cut.
const SKIP_TIGHT_POINTS: [&str; 2] = ["skip_1%", "skip_3%"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let figures = std::env::var("HIPE_BENCH_JSON");
    let figures = figures.unwrap_or_else(|_| format!("{root}/BENCH_figures.json"));
    let (path, producer) = match args.as_slice() {
        [] => (figures, "the figures bench"),
        [flag] if flag == "--trace" => (format!("{root}/BENCH_trace.json"), "trace_dump"),
        [flag, path] if flag == "--trace" => (path.clone(), "trace_dump"),
        _ => return fail(&format!("unknown arguments {args:?} (only --trace [PATH])")),
    };
    let verdict = match std::fs::read_to_string(&path) {
        Err(e) => Err(format!("cannot read {path}: {e} (run {producer} first)")),
        Ok(text) if args.is_empty() => check(&text).map(|n| format!("{n} points")),
        Ok(text) => check_trace(&text)
            .map(|(events, spans)| format!("{events} trace events, {spans} query spans")),
    };
    match verdict {
        Ok(summary) => {
            println!("check_figures: {path} ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("check_figures: FAIL: {msg}");
    ExitCode::FAILURE
}

/// `Err(msg())` unless `ok`.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// A `metrics` object read by dotted name through a prefix
/// (`arch.HIPE.`), the way a storage index is queried by prefix.
#[derive(Clone)]
struct Metrics<'a> {
    at: At<'a>,
    members: &'a [(String, Value)],
    prefix: String,
}

impl<'a> Metrics<'a> {
    /// The object at `at`, once every member's type checks: a number
    /// under `energy.`, else an integer or an integer
    /// `{count, sum, min, max}` summary.
    fn new(at: At<'a>) -> Result<Self, String> {
        let Value::Object(members) = at.value else {
            return Err(format!("{}: not an object", at.path));
        };
        for (name, value) in members {
            let energy = name.starts_with("energy.") || name.contains(".energy.");
            match value {
                Value::Object(_) => {
                    for field in ["count", "sum", "min", "max"] {
                        at.get(name)?.u64(field)?;
                    }
                }
                _ if energy => drop(at.f64(name)?),
                _ => drop(at.u64(name)?),
            }
        }
        let prefix = String::new();
        Ok(Metrics {
            at,
            members,
            prefix,
        })
    }

    /// The members under `prefix`, named without it.
    fn under(&self, prefix: &str) -> Metrics<'a> {
        let prefix = format!("{}{prefix}", self.prefix);
        Metrics {
            prefix,
            ..self.clone()
        }
    }

    /// The run of `arch` under `{variant}arch.{arch}.`.
    fn run(&self, variant: &str, arch: &str) -> Metrics<'a> {
        self.under(&format!("{variant}arch.{arch}."))
    }

    fn get(&self, name: &str) -> Result<At<'a>, String> {
        self.at.get(&format!("{}{name}", self.prefix))
    }

    fn u64(&self, name: &str) -> Result<u64, String> {
        self.at.u64(&format!("{}{name}", self.prefix))
    }

    /// Members `names` as integers, in order.
    fn u64s<const N: usize>(&self, names: [&str; N]) -> Result<[u64; N], String> {
        let mut values = [0; N];
        for (value, name) in values.iter_mut().zip(names) {
            *value = self.u64(name)?;
        }
        Ok(values)
    }

    /// Every full member name.
    fn names(&self) -> impl Iterator<Item = &'a str> {
        self.members.iter().map(|(name, _)| name.as_str())
    }

    /// The prefixes that own a member `name`: `arch.HIPE.` for
    /// `arch.HIPE.{name}`, the empty prefix for `name` itself.
    fn owners(&self, name: &str) -> Vec<&'a str> {
        let owners = self.names().filter_map(|full| full.strip_suffix(name));
        owners
            .filter(|p| p.is_empty() || p.ends_with('.'))
            .collect()
    }
}

/// The energy constants of a document's `machine` header, in tenths
/// of a pJ: per activation, byte read, byte written, cycle, link byte,
/// functional-unit op and cache lookup.
fn energy_constants(machine: At) -> Result<[u64; 7], String> {
    Metrics::new(machine)?.under("energy.").u64s([
        "activate_dpj",
        "read_dpj_per_byte",
        "write_dpj_per_byte",
        "background_dpj_per_cyc",
        "link_dpj_per_byte",
        "fu_op_dpj",
        "cache_lookup_dpj",
    ])
}

/// The report invariants, checked wherever a projection put the names
/// they read:
///
/// * every run (a prefix owning `phase.scan_cyc`) has dispatch ≤ scan
///   ≤ cycles and cycles == scan + gather;
/// * every run (a prefix owning `energy.total_pj`) re-prices from its
///   counters and the header's constants `k` ([`energy_constants`]),
///   in exact tenths of a pJ: dram is activations, bytes read, bytes
///   written and cycles at their prices, link is link bytes, logic is
///   FU ops and cache is cache lookups (one per level probed:
///   accesses + L1 misses + L2 misses; none on a run without caches)
///   at theirs, and the total is the four parts' sum;
/// * every run's partition scan summary covers at least one partition
///   and lies inside the run (min ≤ max ≤ `cycles`), and its engine
///   squashed no more instructions than it received;
/// * every service (a prefix owning `serve.makespan_cyc`) kept each
///   replica and its front end busy for at most its makespan.
fn check_invariants(m: &Metrics, k: &[u64; 7]) -> Result<(), String> {
    let path = &m.at.path;
    for prefix in m.owners("phase.scan_cyc") {
        let phases = [
            "phase.dispatch_cyc",
            "phase.scan_cyc",
            "phase.gather_cyc",
            "cycles",
        ];
        let [dispatch, scan, gather, cycles] = m.under(prefix).u64s(phases)?;
        ensure(dispatch <= scan && scan <= cycles, || {
            format!("{path}: {prefix}phases disordered (dispatch {dispatch}, scan {scan}, cycles {cycles})")
        })?;
        ensure(cycles == scan + gather, || {
            format!("{path}: {prefix}cycles {cycles} are not scan {scan} + gather {gather}")
        })?;
    }
    for prefix in m.owners("energy.total_pj") {
        let run = m.under(prefix);
        let counters = [
            "hmc.activations",
            "hmc.bytes_read",
            "hmc.bytes_written",
            "cycles",
            "hmc.link_bytes",
            "hmc.fu_ops",
        ];
        let [acts, read, written, cycles, link, ops] = run.u64s(counters)?;
        // One lookup per cache level probed (`CacheStats::total_lookups`);
        // a run without caches probed none.
        let lookups = match run.get("cache.accesses") {
            Ok(_) => run
                .u64s(["cache.accesses", "cache.l1_misses", "cache.l2_misses"])?
                .iter()
                .sum(),
            Err(_) => 0,
        };
        // Each count at its constant, wide enough that no product wraps.
        let counts = [acts, read, written, cycles, link, ops, lookups];
        let [act, rd, wr, bg, link, logic, cache] =
            std::array::from_fn(|i| u128::from(counts[i]) * u128::from(k[i]));
        let parts = [
            ("dram", act + rd + wr + bg),
            ("link", link),
            ("logic", logic),
            ("cache", cache),
        ];
        let total = parts.iter().map(|(_, dpj)| dpj).sum();
        for (part, dpj) in parts.into_iter().chain([("total", total)]) {
            let pj = m.at.f64(&format!("{prefix}energy.{part}_pj"))?;
            ensure(pj >= 0.0 && (pj * 10.0).round() as u128 == dpj, || {
                format!(
                    "{path}: {prefix}energy.{part}_pj is {pj} pJ, its counters price {}.{} pJ",
                    dpj / 10,
                    dpj % 10
                )
            })?;
        }
    }
    for prefix in m.owners("partition.scan_cyc") {
        let (run, scan) = (m.under(prefix), m.under(prefix).get("partition.scan_cyc")?);
        let (count, min, max) = (scan.u64("count")?, scan.u64("min")?, scan.u64("max")?);
        let cycles = run.u64("cycles")?;
        ensure(count >= 1, || {
            format!("{}: summarizes no partition", scan.path)
        })?;
        ensure(min <= max && max <= cycles, || {
            format!(
                "{}: needs min <= max <= the run's {cycles} cycles, has min {min}, max {max}",
                scan.path
            )
        })?;
    }
    for prefix in m.owners("engine.squashed") {
        let [squashed, instructions] = m
            .under(prefix)
            .u64s(["engine.squashed", "engine.instructions"])?;
        ensure(squashed <= instructions, || {
            format!("{path}.{prefix}engine.squashed: {squashed} squashed of {instructions} instructions")
        })?;
    }
    for prefix in m.owners("serve.makespan_cyc") {
        let service = m.under(prefix);
        let [makespan, frontend] =
            service.u64s(["serve.makespan_cyc", "serve.frontend_busy_cyc"])?;
        let busiest = service.get("serve.replica_busy_cyc")?.u64("max")?;
        ensure(busiest <= makespan && frontend <= makespan, || {
            format!("{path}: {prefix}busy past the {makespan} cyc makespan (busiest replica {busiest}, front end {frontend})")
        })?;
    }
    Ok(())
}

/// Validates the figures document; returns the number of points.
fn check(text: &str) -> Result<usize, String> {
    let root = json::parse(text).map_err(|e| format!("figures document: {e}"))?;
    let doc = At::new("figures", &root);
    ensure(doc.str("bench") == Ok("figures"), || {
        "not a figures document (missing \"bench\": \"figures\")".into()
    })?;
    let k = energy_constants(doc.get("machine")?)?;
    let archs = Value::Array(ARCHS.map(Value::from).to_vec());
    ensure(root.get("archs") == Some(&archs), || {
        format!("arch list drifted (expected {ARCHS:?})")
    })?;
    let mut points: Vec<(&str, At, Metrics)> = Vec::new();
    for p in doc.items("points")? {
        let name = p.str("name")?;
        // Rules look points up by name, so a repeat would go unchecked.
        ensure(points.iter().all(|(seen, ..)| *seen != name), || {
            format!("point {name} appears twice")
        })?;
        let p = At::new(format!("point {name}"), p.value);
        let metrics = Metrics::new(p.get("metrics")?)?;
        check_invariants(&metrics, &k)?;
        points.push((name, p.get("config")?, metrics));
    }
    ensure(!points.is_empty(), || "no sweep points found".into())?;
    let point = |wanted: &str, sweep: &str| {
        let found = points.iter().find(|(name, ..)| *name == wanted);
        let missing = || format!("{sweep} point {wanted} missing");
        found.map(|(_, config, m)| (config, m)).ok_or_else(missing)
    };

    // Per-arch points: every machine ran, with nonempty phases. Service
    // and host_par rows describe the scheduler and the simulator, and
    // the partition sweep carries only the logic machines.
    for (name, _, p) in &points {
        if name.starts_with("serve_") || *name == "host_par" {
            continue;
        }
        let archs: &[&str] = if name.starts_with("par_") {
            &LOGIC_ARCHS
        } else {
            &ARCHS
        };
        for a in archs {
            let run = p.run("", a);
            ensure(
                run.u64("cycles")? > 0 && run.u64("phase.scan_cyc")? > 0,
                || format!("point {name}: arch {a} has empty phases"),
            )?;
        }
    }
    // Aggregate sweep: a regression that drops the fused-aggregate rows
    // or zeroes their gather phase fails here.
    for wanted in AGGREGATE_POINTS {
        let (_, p) = point(wanted, "aggregate sweep")?;
        for a in ARCHS {
            ensure(p.run("", a).u64("phase.gather_cyc")? > 0, || {
                format!("point {wanted}: arch {a} reports a zero-cycle aggregate phase")
            })?;
        }
    }
    // Partition sweep: more engines never make a logic machine slower.
    for a in LOGIC_ARCHS {
        let mut prev = (u64::MAX, u64::MAX);
        for wanted in PARTITION_POINTS {
            let run = point(wanted, "partition sweep")?.1.run("", a);
            let (scan, cycles) = (run.u64("phase.scan_cyc")?, run.u64("cycles")?);
            ensure(scan <= prev.0 && cycles <= prev.1, || {
                format!("point {wanted}: {a} got slower with more engines (scan {} -> {scan}, cycles {} -> {cycles})", prev.0, prev.1)
            })?;
            prev = (scan, cycles);
        }
    }
    // Service sweep: adding cubes never lowers throughput.
    let mut qpgc = Vec::new();
    for wanted in SERVE_POINTS {
        let service = point(wanted, "service sweep")?.1.run("", "HIPE");
        let q = service.u64("serve.queries_per_gcyc")?;
        let prev = qpgc.last().copied().unwrap_or(0);
        ensure(q > 0, || format!("point {wanted}: zero service throughput"))?;
        ensure(q >= prev, || {
            format!("point {wanted}: throughput fell with more cubes ({prev} -> {q} q/Gcyc)")
        })?;
        qpgc.push(q);
        let percentiles = ["p50", "p95", "p99"].map(|p| format!("serve.latency.{p}_cyc"));
        let [p50, p95, p99] = service.u64s(percentiles.each_ref().map(String::as_str))?;
        ensure(p50 > 0 && p50 <= p95 && p95 <= p99, || {
            format!(
                "point {wanted}: latency percentiles disordered (p50 {p50}, p95 {p95}, p99 {p99})"
            )
        })?;
    }
    // Replication: one sub-query per replica, so two replicas per shard
    // owe 1.7x the single-replica throughput (integer-only).
    let (q4, q4x2) = (qpgc[2], qpgc[3]);
    let (config, replicated) = point("serve_4x2", "service sweep")?;
    ensure(config.u64("replicas") == Ok(2), || {
        "point serve_4x2 does not report 2 replicas".into()
    })?;
    ensure(q4x2 * 10 >= q4 * 17, || {
        format!("point serve_4x2: replication speedup below 1.7x ({q4} -> {q4x2} q/Gcyc)")
    })?;
    // Failover: the kill fired, every query was still served, and every
    // machine's answer is bit-identical to the fault-free run's.
    let (_, fail) = point("serve_fail", "failover")?;
    let faulted = fail.run("fault.", "HIPE");
    ensure(faulted.u64("serve.failovers")? > 0, || {
        "point serve_fail: no failover fired (the fault was a no-op)".into()
    })?;
    faulted.u64("serve.redispatched")?;
    let clean = replicated.run("", "HIPE").u64("serve.queries")?;
    let faulted = faulted.u64("serve.queries")?;
    ensure(clean == faulted, || {
        format!("point serve_fail: lost queries under failover ({clean} clean vs {faulted} with the fault)")
    })?;
    for a in ARCHS {
        let clean = fail.run("clean.", a).u64("serve.answers_digest")?;
        let fault = fail.run("fault.", a).u64("serve.answers_digest")?;
        ensure(clean == fault, || {
            format!("point serve_fail: {a} answer digest changed under failover ({clean} clean vs {fault} with the fault)")
        })?;
    }
    // Zone-map skip sweep: pruning fired on every machine and never cost
    // cycles; at ≤ 3 % selectivity it cut scan and dispatch completion
    // by 1.5x (integer-only: base * 10 >= pruned * 15).
    for wanted in SKIP_POINTS {
        let (_, p) = point(wanted, "zone-map skip")?;
        for a in ARCHS {
            let (run, full) = (p.run("", a), p.run("base.", a));
            let (cycles, base) = (run.u64("cycles")?, full.u64("cycles")?);
            ensure(cycles <= base, || {
                format!("point {wanted}: {a} pruned run slower than unpruned ({base} -> {cycles} cycles)")
            })?;
            ensure(run.u64("zonemap.regions_pruned")? > 0, || {
                format!("point {wanted}: {a} pruned no regions")
            })?;
            if SKIP_TIGHT_POINTS.contains(&wanted) {
                let phases = ["phase.scan_cyc", "phase.dispatch_cyc"];
                let [scan, dispatch] = run.u64s(phases)?;
                let [base_scan, base_dispatch] = full.u64s(phases)?;
                let win = base_scan * 10 >= scan * 15 && base_dispatch * 10 >= dispatch * 15;
                ensure(win, || {
                    format!("point {wanted}: {a} skip win below 1.5x (scan {base_scan} -> {scan}, dispatch {base_dispatch} -> {dispatch})")
                })?;
            }
        }
    }
    // Shard skipping: the scatter path skipped a shard, at no cycle cost.
    let (_, skip) = point("serve_skip", "shard-skipping")?;
    let (run, full) = (skip.run("", "HIPE"), skip.run("base.", "HIPE"));
    ensure(run.u64("serve.shards_skipped")? > 0, || {
        "point serve_skip: the scatter path skipped no shards".into()
    })?;
    let (cycles, base) = (run.u64("cycles")?, full.u64("cycles")?);
    ensure(cycles <= base, || {
        format!("point serve_skip: shard skipping slower than the full scatter ({base} -> {cycles} cycles)")
    })?;
    // Host-parallel co-simulation is bit-identical to serial. (Its
    // wall-clock rule is host-clock, so the figures bench enforces it
    // when it runs: `hipe_bench::host_par_not_slower`.)
    let (config, par) = point("host_par", "host-parallel")?;
    let workers = config.u64("workers")?;
    ensure(workers >= 2, || {
        format!("point host_par: parallel leg ran on {workers} worker(s)")
    })?;
    let (serial, parallel) = (par.u64("serial.digest")?, par.u64("parallel.digest")?);
    ensure(serial == parallel, || {
        format!(
            "point host_par: parallel results diverged from serial (digest {serial} vs {parallel})"
        )
    })?;
    Ok(points.len())
}

/// Validates a Chrome trace; returns `(events, query spans)`.
fn check_trace(text: &str) -> Result<(u64, u64), String> {
    let root = json::parse(text).map_err(|e| format!("trace document: {e}"))?;
    let doc = At::new("trace", &root);
    let events = doc.items("traceEvents")?;
    let other = doc.get("otherData")?;
    let k = energy_constants(other.get("machine")?)?;
    let metrics = Metrics::new(other.get("metrics")?)?;
    check_metrics(&metrics, other.u64("shards")?)?;
    check_invariants(&metrics, &k)?;
    let counters = ["queries", "failovers", "redispatched", "makespan_cyc"];
    let counters = counters.map(|c| format!("serve.{c}"));
    let [queries, failovers, redispatched, makespan] =
        metrics.u64s(counters.each_ref().map(String::as_str))?;
    let recorded = other.u64("events")?;

    let mut queries_tid = None;
    let mut sync_spans: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut begins: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // id -> (tid, ts)
    let mut ends: BTreeMap<u64, u64> = BTreeMap::new(); // id -> ts
    let (mut decoded, mut kills, mut redispatches) = (0u64, 0u64, 0u64);
    for e in &events {
        let ph = e.str("ph")?;
        if ph == "M" {
            if e.str("name")? == "thread_name" && e.get("args")?.str("name")? == "queries" {
                queries_tid = Some(e.u64("tid")?);
            }
            continue;
        }
        let (tid, ts) = (e.u64("tid")?, e.u64("ts")?);
        let past = |end| {
            format!(
                "{}: ends at {end} cyc, past the {makespan} cyc makespan",
                e.path
            )
        };
        match ph {
            "X" => {
                let end = ts + e.u64("dur")?;
                ensure(end <= makespan, || past(end))?;
                sync_spans.entry(tid).or_default().push((ts, end));
            }
            "b" => {
                let id = e.u64("id")?;
                ensure(begins.insert(id, (tid, ts)).is_none(), || {
                    format!("async id {id} begun twice")
                })?;
            }
            "e" => {
                let id = e.u64("id")?;
                ensure(ts <= makespan, || past(ts))?;
                ensure(ends.insert(id, ts).is_none(), || {
                    format!("async id {id} ended twice")
                })?;
                continue; // one recorded span, counted at its begin
            }
            "i" => match e.str("name")? {
                "fault.kill" => kills += 1,
                "redispatch" => redispatches += 1,
                _ => {}
            },
            "C" => drop(e.get("args")?.u64("value")?),
            other => return Err(format!("{}: unknown phase `{other}`", e.path)),
        }
        decoded += 1;
    }

    // Async begin/end pairs balance id-for-id, time-ordered.
    let (b, e) = (begins.len(), ends.len());
    ensure(b == e, || format!("{b} async begins but {e} async ends"))?;
    for (id, (_, begin)) in &begins {
        let end = ends
            .get(id)
            .ok_or_else(|| format!("async id {id} begins but never ends"))?;
        ensure(end >= begin, || {
            format!("async id {id} ends at {end}, before its begin at {begin}")
        })?;
    }
    // Sync spans on each track nest: sorted by (start asc, end desc),
    // each closes before the innermost still-open enclosing span does.
    for (tid, spans) in &mut sync_spans {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut open: Vec<u64> = Vec::new();
        for &(ts, end) in spans.iter() {
            while open.last().is_some_and(|&parent| parent <= ts) {
                open.pop();
            }
            if let Some(&parent) = open.last() {
                ensure(end <= parent, || {
                    format!(
                        "track {tid}: span [{ts}, {end}] straddles its parent's end at {parent}"
                    )
                })?;
            }
            open.push(end);
        }
    }
    // The events reconcile with the ServiceReport counters.
    let qtid = queries_tid.ok_or("no `queries` track in the metadata records")?;
    let spans = begins.values().filter(|(tid, _)| *tid == qtid).count() as u64;
    ensure(spans == queries, || {
        format!("{spans} query lifetime spans for {queries} queries served")
    })?;
    ensure(kills == failovers, || {
        format!("{kills} fault.kill instants for {failovers} failover(s)")
    })?;
    ensure(redispatches == redispatched, || {
        format!("{redispatches} redispatch instants for {redispatched} re-dispatched sub-queries")
    })?;
    ensure(decoded == recorded, || {
        format!("decoded {decoded} events, the recorder wrote {recorded}")
    })?;
    Ok((decoded, spans))
}

/// Validates the shape of `otherData.metrics`: the service's `serve.*`
/// counters, and each shard's `RunReport::metrics` under a `shard{s}.`
/// prefix. Every other key names a shard below `shards`, and each
/// shard ran (`cycles` > 0) and summarizes its partitions' scans
/// ([`check_invariants`] checks the summary).
fn check_metrics(metrics: &Metrics, shards: u64) -> Result<(), String> {
    let path = &metrics.at.path;
    for key in metrics.names() {
        let shard = key
            .strip_prefix("shard")
            .and_then(|rest| rest.split_once('.'))
            .and_then(|(s, _)| s.parse::<u64>().ok());
        ensure(
            key.starts_with("serve.") || shard.is_some_and(|s| s < shards),
            || format!("{path}.{key}: names no shard below {shards}"),
        )?;
    }
    for s in 0..shards {
        let shard = metrics.under(&format!("shard{s}."));
        ensure(shard.u64("cycles")? > 0, || {
            format!("{path}.shard{s}.cycles: is 0")
        })?;
        shard.get("partition.scan_cyc")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipe_hmc::EnergyModel;

    fn n(v: u64) -> Value {
        v.into()
    }

    /// Members `(name, value)` renamed under `prefix`.
    fn under(prefix: &str, members: Vec<(&str, Value)>) -> Vec<(String, Value)> {
        let rename = |(k, v)| (format!("{prefix}{k}"), v);
        members.into_iter().map(rename).collect()
    }

    fn point(name: &str, config: Vec<(&str, Value)>, metrics: Vec<(String, Value)>) -> Value {
        Value::object([
            ("name", name.into()),
            ("config", Value::object(config)),
            ("metrics", Value::object(metrics)),
        ])
    }

    /// `dpj` tenths of a pJ as the reports write pJ.
    fn pj(dpj: u64) -> Value {
        Value::fixed(dpj as f64 / 10.0, 1)
    }

    /// One run under `prefix`: dispatch and scan complete at
    /// `dispatch` and `scan`, the gather takes `gather` more cycles,
    /// and its energy is the paper constants' price of its counters.
    fn run(prefix: &str, dispatch: u64, scan: u64, gather: u64) -> Vec<(String, Value)> {
        let cycles = scan + gather;
        // 900 pJ per activation, 4 pJ per byte read, 4.4 per byte
        // written, 1.5 per cycle; 12 per link byte; 60 per FU op; 50
        // per cache lookup (accesses + L1 misses + L2 misses).
        let dram = 9000 + 256 * 40 + 3 * 44 + 15 * cycles;
        let (link, logic, cache) = (300 * 120, 2 * 600, (10 + 3 + 1) * 500);
        let members = vec![
            ("cycles", n(cycles)),
            ("phase.dispatch_cyc", n(dispatch)),
            ("phase.scan_cyc", n(scan)),
            ("phase.gather_cyc", n(gather)),
            ("zonemap.regions_pruned", n(62)),
            ("hmc.activations", n(1)),
            ("hmc.bytes_read", n(256)),
            ("hmc.bytes_written", n(3)),
            ("hmc.link_bytes", n(300)),
            ("hmc.fu_ops", n(2)),
            ("cache.accesses", n(10)),
            ("cache.l1_misses", n(3)),
            ("cache.l2_misses", n(1)),
            ("energy.dram_pj", pj(dram)),
            ("energy.link_pj", pj(link)),
            ("energy.logic_pj", pj(logic)),
            ("energy.cache_pj", pj(cache)),
            ("energy.total_pj", pj(dram + link + logic + cache)),
        ];
        under(prefix, members)
    }

    /// A per-arch point: every arch of `archs` reports the same run.
    fn arch_point(name: &str, archs: &[&str], phases: [u64; 3]) -> Value {
        let [dispatch, scan, gather] = phases;
        let runs = archs
            .iter()
            .flat_map(|a| run(&format!("arch.{a}."), dispatch, scan, gather));
        point(name, vec![("query", "Q".into())], runs.collect())
    }

    fn four_arch_point(name: &str, gather: u64) -> Value {
        arch_point(name, &ARCHS, [1, 90, gather])
    }

    fn par_point(name: &str, cycles: u64) -> Value {
        arch_point(name, &LOGIC_ARCHS, [1, cycles - 10, 10])
    }

    /// One service run under `prefix`.
    fn service(
        prefix: &str,
        queries: u64,
        qpgc: u64,
        faults: [u64; 2],
        digest: u64,
    ) -> Vec<(String, Value)> {
        let busy = [
            ("count", n(2)),
            ("sum", n(60)),
            ("min", n(25)),
            ("max", n(35)),
        ];
        let members = vec![
            ("serve.queries", n(queries)),
            ("serve.makespan_cyc", n(1000)),
            ("serve.queries_per_gcyc", n(qpgc)),
            ("serve.latency.p50_cyc", n(100)),
            ("serve.latency.p95_cyc", n(200)),
            ("serve.latency.p99_cyc", n(300)),
            ("serve.frontend_busy_cyc", n(50)),
            ("serve.replica_busy_cyc", Value::object(busy)),
            ("serve.failovers", n(faults[0])),
            ("serve.redispatched", n(faults[1])),
            ("serve.answers_digest", n(digest)),
        ];
        under(prefix, members)
    }

    fn serve_point(name: &str, replicas: u64, qpgc: u64) -> Value {
        let config = vec![("shards", n(1)), ("replicas", n(replicas))];
        point(name, config, service("arch.HIPE.", 96, qpgc, [0, 0], 11))
    }

    fn fail_point() -> Value {
        let runs = ARCHS.iter().flat_map(|a| {
            let clean = service(&format!("clean.arch.{a}."), 96, 500, [0, 0], 11);
            let fault = service(&format!("fault.arch.{a}."), 96, 400, [1, 6], 11);
            [clean, fault].concat()
        });
        let config = vec![("shards", n(4)), ("replicas", n(2))];
        point("serve_fail", config, runs.collect())
    }

    /// A skip point whose pruned phases all complete at `scan` and
    /// whose unpruned baseline completes at `base`.
    fn skip_point(name: &str, scan: u64, base: u64) -> Value {
        let runs = ARCHS.iter().flat_map(|a| {
            let pruned = run(&format!("arch.{a}."), scan, scan, 0);
            [pruned, run(&format!("base.arch.{a}."), base, base, 0)].concat()
        });
        point(name, vec![("query", "Q".into())], runs.collect())
    }

    fn serve_skip_point() -> Value {
        let metrics = vec![
            ("arch.HIPE.cycles", n(40)),
            ("arch.HIPE.serve.shards_skipped", n(3)),
            ("base.arch.HIPE.cycles", n(90)),
            ("base.arch.HIPE.serve.shards_skipped", n(0)),
        ];
        point("serve_skip", vec![("shards", n(4))], under("", metrics))
    }

    fn host_par_point() -> Value {
        let metrics = vec![("serial.digest", n(42)), ("parallel.digest", n(42))];
        point("host_par", vec![("workers", n(4))], under("", metrics))
    }

    fn points_full(gather_q6: u64, par_cycles: [u64; 4], serve_qpgc: [u64; 4]) -> Vec<Value> {
        let mut points = vec![
            four_arch_point("sel_2%", 0),
            four_arch_point("agg_2%", 7),
            four_arch_point("agg_10%", 7),
            four_arch_point("agg_50%", 7),
            four_arch_point("q6", gather_q6),
        ];
        for (name, cycles) in PARTITION_POINTS.iter().zip(par_cycles) {
            points.push(par_point(name, cycles));
        }
        for (name, qpgc) in SERVE_POINTS.iter().zip(serve_qpgc) {
            let replicas = if *name == "serve_4x2" { 2 } else { 1 };
            points.push(serve_point(name, replicas, qpgc));
        }
        points.push(fail_point());
        points.push(skip_point("skip_1%", 10, 300));
        points.push(skip_point("skip_3%", 20, 200));
        points.push(skip_point("skip_10%", 60, 100));
        points.push(serve_skip_point());
        points.push(host_par_point());
        points
    }

    fn render(points: Vec<Value>) -> String {
        json::write(&Value::object([
            ("bench", "figures".into()),
            ("archs", Value::Array(ARCHS.map(Value::from).to_vec())),
            ("machine", EnergyModel::paper().metrics()),
            ("points", Value::Array(points)),
        ]))
    }

    fn doc_full(gather_q6: u64, par_cycles: [u64; 4], serve_qpgc: [u64; 4]) -> String {
        render(points_full(gather_q6, par_cycles, serve_qpgc))
    }

    fn doc_with(gather_q6: u64, par_cycles: [u64; 4]) -> String {
        doc_full(gather_q6, par_cycles, [100, 180, 300, 600])
    }

    fn doc(gather_q6: u64) -> String {
        doc_with(gather_q6, [800, 400, 200, 100])
    }

    /// The default points with `edit` applied to the config and the
    /// metrics of point `row`.
    fn edit_points(row: &str, edit: impl FnOnce(&mut Members, &mut Members)) -> Vec<Value> {
        let mut points = points_full(10, [800, 400, 200, 100], [100, 180, 300, 600]);
        let p = points
            .iter_mut()
            .find(|p| p.get("name") == Some(&row.into()));
        let Some(Value::Object(members)) = p else {
            panic!("no point {row}");
        };
        let [_, (_, Value::Object(config)), (_, Value::Object(metrics))] = &mut members[..] else {
            panic!("a point is {{name, config, metrics}}");
        };
        edit(config, metrics);
        points
    }

    type Members = Vec<(String, Value)>;

    /// The default document with `edit` applied to member `key` of
    /// `section` (`config` or `metrics`) of point `row`.
    fn edited(
        row: &str,
        section: &str,
        key: &str,
        edit: impl FnOnce(&mut (String, Value)),
    ) -> String {
        render(edit_points(row, |config, metrics| {
            let members = if section == "config" { config } else { metrics };
            let member = members.iter_mut().find(|(k, _)| k == key);
            edit(member.unwrap_or_else(|| panic!("point {row} lacks {key}")));
        }))
    }

    /// The default document with point `name` replaced by `p`.
    fn doc_replacing(name: &str, p: Value) -> String {
        let mut points = points_full(10, [800, 400, 200, 100], [100, 180, 300, 600]);
        let at = points
            .iter()
            .position(|q| q.get("name") == Some(&name.into()));
        points[at.expect("a default point")] = p;
        render(points)
    }

    /// `check`'s error with metric `key` of point `row` set to `value`.
    fn metric_error(row: &str, key: &str, value: Value) -> String {
        check(&edited(row, "metrics", key, |m| m.1 = value)).unwrap_err()
    }

    /// The `line:column` where a parse of `text` runs out of input.
    fn end_position(text: &str) -> String {
        let last_line = text.rsplit('\n').next().unwrap_or(text);
        format!(
            "{}:{}",
            text.matches('\n').count() + 1,
            last_line.chars().count() + 1
        )
    }

    #[test]
    fn accepts_a_complete_document() {
        assert_eq!(check(&doc(10)), Ok(19));
    }

    #[test]
    fn rejects_a_repeated_point_name() {
        // A second par_4 that breaks monotonicity, or a second
        // serve_4x2 with no throughput, must not hide behind the first.
        let with_repeat = |repeat: Value| {
            let mut points = points_full(10, [800, 400, 200, 100], [100, 180, 300, 600]);
            points.push(repeat);
            check(&render(points))
        };
        let err = with_repeat(par_point("par_4", 2000)).unwrap_err();
        assert_eq!(err, "point par_4 appears twice");
        let err = with_repeat(serve_point("serve_4x2", 2, 1)).unwrap_err();
        assert_eq!(err, "point serve_4x2 appears twice");
    }

    #[test]
    fn rejects_a_missing_host_par_row() {
        // Renamed to a serve_-prefixed point so only the host_par
        // presence check can fire.
        let text = doc(10).replace("\"name\": \"host_par\"", "\"name\": \"serve_extra\"");
        assert!(check(&text).unwrap_err().contains("host_par missing"));
    }

    #[test]
    fn rejects_parallel_results_diverging_from_serial() {
        let err = metric_error("host_par", "parallel.digest", n(43));
        assert!(err.contains("diverged from serial"), "{err}");
    }

    #[test]
    fn rejects_a_serial_host_par_leg() {
        let text = edited("host_par", "config", "workers", |m| m.1 = n(1));
        let err = check(&text).unwrap_err();
        assert!(err.contains("1 worker"), "{err}");
    }

    #[test]
    fn rejects_missing_aggregate_points() {
        let text = doc(10).replace("agg_10%", "agg_renamed");
        assert!(check(&text).unwrap_err().contains("agg_10%"));
    }

    #[test]
    fn rejects_empty_aggregate_phase() {
        assert!(check(&doc(0)).unwrap_err().contains("zero-cycle"));
    }

    #[test]
    fn rejects_missing_arch() {
        let text = doc(10).replace("\"arch.HIVE.", "\"arch.hive.");
        assert!(check(&text).unwrap_err().contains("HIVE"));
    }

    #[test]
    fn rejects_missing_partition_points() {
        let text = doc(10).replace("par_4", "par_5");
        assert!(check(&text).unwrap_err().contains("par_4"));
    }

    #[test]
    fn rejects_more_engines_getting_slower() {
        // par_4 slower than par_2: the partition win regressed.
        let text = doc_with(10, [800, 400, 500, 100]);
        let err = check(&text).unwrap_err();
        assert!(err.contains("par_4") && err.contains("slower"), "{err}");
    }

    #[test]
    fn accepts_flat_partition_scaling() {
        // Non-increasing, not strictly decreasing, is acceptable (the
        // knee flattens once dispatch bandwidth saturates).
        assert!(check(&doc_with(10, [800, 400, 400, 400])).is_ok());
    }

    #[test]
    fn rejects_missing_serve_points() {
        let text = doc(10).replace("serve_2", "serve_3");
        assert!(check(&text).unwrap_err().contains("serve_2"));
    }

    #[test]
    fn rejects_throughput_falling_with_more_shards() {
        let text = doc_full(10, [800, 400, 200, 100], [100, 90, 300, 600]);
        let err = check(&text).unwrap_err();
        assert!(err.contains("serve_2") && err.contains("fell"), "{err}");
    }

    #[test]
    fn accepts_flat_service_scaling() {
        // Non-decreasing, not strictly increasing, is acceptable for
        // the *shard* points (a tiny table can saturate the front end
        // before the shards); the replication point still owes 1.7x.
        assert!(check(&doc_full(10, [800, 400, 200, 100], [100, 100, 100, 170])).is_ok());
    }

    #[test]
    fn rejects_zero_or_disordered_service_rows() {
        let text = doc_full(10, [800, 400, 200, 100], [0, 100, 200, 400]);
        assert!(check(&text)
            .unwrap_err()
            .contains("zero service throughput"));
        let err = metric_error("serve_2", "arch.HIPE.serve.latency.p95_cyc", n(400));
        assert!(err.contains("disordered"), "{err}");
    }

    #[test]
    fn rejects_replication_speedup_below_17x() {
        // 300 -> 400 q/Gcyc is monotone but short of the 1.7x the
        // second replica owes.
        let text = doc_full(10, [800, 400, 200, 100], [100, 180, 300, 400]);
        let err = check(&text).unwrap_err();
        assert!(err.contains("below 1.7x"), "{err}");
    }

    #[test]
    fn rejects_a_replication_point_without_two_replicas() {
        let text = edited("serve_4x2", "config", "replicas", |m| m.1 = n(1));
        let err = check(&text).unwrap_err();
        assert!(err.contains("does not report 2 replicas"), "{err}");
    }

    #[test]
    fn rejects_a_failover_run_whose_fault_never_fired() {
        let err = metric_error("serve_fail", "fault.arch.HIPE.serve.failovers", n(0));
        assert!(err.contains("no failover fired"), "{err}");
    }

    #[test]
    fn rejects_query_loss_under_failover() {
        let err = metric_error("serve_fail", "fault.arch.HIPE.serve.queries", n(95));
        assert!(err.contains("lost queries"), "{err}");
    }

    #[test]
    fn rejects_an_answer_digest_changed_by_failover() {
        let err = metric_error("serve_fail", "fault.arch.HIPE.serve.answers_digest", n(12));
        assert!(err.contains("HIPE answer digest changed"), "{err}");
        // A missing digest is as fatal as a mismatched one.
        let text = edited(
            "serve_fail",
            "metrics",
            "clean.arch.x86.serve.answers_digest",
            |m| m.0 = "clean.arch.x86.serve.answers_gone".into(),
        );
        let err = check(&text).unwrap_err();
        assert!(
            err.contains("lacks clean.arch.x86.serve.answers_digest"),
            "{err}"
        );
    }

    #[test]
    fn rejects_missing_skip_points() {
        let text = doc(10).replace("skip_3%", "skip_33%");
        assert!(check(&text).unwrap_err().contains("skip_3%"));
    }

    #[test]
    fn rejects_pruning_costing_cycles() {
        // A baseline below the pruned run's 60 cycles means pruning
        // made the machine slower.
        let err = check(&doc_replacing("skip_10%", skip_point("skip_10%", 60, 40))).unwrap_err();
        assert!(err.contains("skip_10%") && err.contains("slower"), "{err}");
    }

    #[test]
    fn rejects_a_skip_row_that_pruned_nothing() {
        let err = metric_error("skip_3%", "arch.HIPE.zonemap.regions_pruned", n(0));
        assert!(err.contains("pruned no regions"), "{err}");
    }

    #[test]
    fn rejects_a_skip_win_below_15x_at_low_selectivity() {
        // skip_3% prunes to 20 cycles; a baseline of 25 leaves only a
        // 1.25x scan win — short of the 1.5x owed at <= 3 %
        // selectivity. skip_10% owes no such margin.
        let err = check(&doc_replacing("skip_3%", skip_point("skip_3%", 20, 25))).unwrap_err();
        assert!(
            err.contains("skip_3%") && err.contains("below 1.5x"),
            "{err}"
        );
        assert!(check(&doc_replacing("skip_10%", skip_point("skip_10%", 60, 70))).is_ok());
    }

    #[test]
    fn rejects_a_scatter_path_that_never_skipped() {
        let err = metric_error("serve_skip", "arch.HIPE.serve.shards_skipped", n(0));
        assert!(err.contains("skipped no shards"), "{err}");
        let err = metric_error("serve_skip", "base.arch.HIPE.cycles", n(39));
        assert!(err.contains("slower than the full scatter"), "{err}");
        let text = doc(10).replace("serve_skip", "serve_skap");
        assert!(check(&text).unwrap_err().contains("serve_skip"));
    }

    #[test]
    fn point_field_requires_a_delimited_top_level_key() {
        // The name as the tail of a longer name, inside a string, or
        // in the point's config instead of its metrics is not the
        // metric.
        let key = "arch.HIPE.serve.queries_per_gcyc";
        let lacks = Err(format!("point serve_2.metrics: lacks {key}"));
        let renamed = edited("serve_2", "metrics", key, |m| m.0 = format!("old_{key}"));
        assert_eq!(check(&renamed), lacks);
        let take = |metrics: &mut Members| {
            let at = metrics.iter().position(|(k, _)| k == key);
            metrics.remove(at.expect("serve_2 reports its throughput"))
        };
        let decoys = edit_points("serve_2", |config, metrics| {
            config.push(take(metrics));
            config.push(("note".into(), format!("was \"{key}\": 180").into()));
        });
        assert_eq!(check(&render(decoys)), lacks);
        // A real metric parses wherever it sits in the row.
        let moved = edit_points("serve_2", |_, metrics| {
            let m = take(metrics);
            metrics.insert(0, m);
        });
        assert_eq!(check(&render(moved)), Ok(19));
    }

    #[test]
    fn rejects_disordered_phases() {
        let err = metric_error("agg_2%", "arch.HIVE.phase.dispatch_cyc", n(91));
        assert!(
            err.contains("point agg_2%.metrics: arch.HIVE.phases disordered (dispatch 91, scan 90, cycles 97)"),
            "{err}"
        );
        let err = metric_error("par_2", "arch.HIPE.phase.scan_cyc", n(401));
        assert!(err.contains("arch.HIPE.phases disordered"), "{err}");
        let err = metric_error("q6", "arch.x86.phase.gather_cyc", n(11));
        assert!(
            err.contains("arch.x86.cycles 100 are not scan 90 + gather 11"),
            "{err}"
        );
        let err = metric_error("skip_1%", "base.arch.HMC-ISA.cycles", n(301));
        assert!(
            err.contains("base.arch.HMC-ISA.cycles 301 are not"),
            "{err}"
        );
    }

    #[test]
    fn rejects_energy_parts_that_miss_the_total() {
        // q6's HIPE run: 100 cycles price the parts at 2087.2, 3600,
        // 120 and 700 pJ, 6507.2 pJ in all. One tenth off is off.
        let total = |dpj| metric_error("q6", "arch.HIPE.energy.total_pj", pj(dpj));
        let err = total(65073);
        assert!(
            err.contains("point q6.metrics: arch.HIPE.energy.total_pj is 6507.3 pJ, its counters price 6507.2 pJ"),
            "{err}"
        );
        assert!(total(65071).contains("price 6507.2 pJ"));
        let err = metric_error("q6", "arch.HIPE.energy.link_pj", pj(36001));
        assert!(
            err.contains("arch.HIPE.energy.link_pj is 3600.1 pJ, its counters price 3600.0 pJ"),
            "{err}"
        );
        let err = metric_error("sel_2%", "arch.x86.energy.cache_pj", pj(0));
        assert!(
            err.contains("arch.x86.energy.cache_pj is 0 pJ, its counters price 700.0 pJ"),
            "{err}"
        );
        let err = metric_error(
            "par_1",
            "arch.HIVE.energy.dram_pj",
            Value::fixed(-3137.2, 1),
        );
        assert!(
            err.contains("arch.HIVE.energy.dram_pj is -3137.2 pJ, its counters price 3137.2 pJ"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_mutated_counter() {
        // One more byte written is 4.4 pJ more DRAM energy than the run
        // reports; a run without its counters cannot be priced at all.
        let err = metric_error("q6", "arch.HIPE.hmc.bytes_written", n(4));
        assert!(
            err.contains("arch.HIPE.energy.dram_pj is 2087.2 pJ, its counters price 2091.6 pJ"),
            "{err}"
        );
        let err = metric_error("skip_1%", "base.arch.HIVE.cache.l2_misses", n(2));
        assert!(
            err.contains("base.arch.HIVE.energy.cache_pj is 700 pJ, its counters price 750.0 pJ"),
            "{err}"
        );
        let gone = edited("q6", "metrics", "arch.HIPE.hmc.fu_ops", |m| {
            m.0 = "arch.HIPE.hmc.ops".into()
        });
        assert!(check(&gone)
            .unwrap_err()
            .contains("lacks arch.HIPE.hmc.fu_ops"));
    }

    #[test]
    fn rejects_a_mutated_energy_constant() {
        let header = "\"energy.write_dpj_per_byte\": 44";
        let text = doc(10).replacen(header, "\"energy.write_dpj_per_byte\": 45", 1);
        let err = check(&text).unwrap_err();
        assert!(err.contains("energy.dram_pj is"), "{err}");
        assert!(err.contains("its counters price"), "{err}");
        // A header that lacks a constant, or the whole machine, fails
        // by its path: no run goes unpriced.
        let text = doc(10).replacen(header, "\"energy.write_dpj\": 44", 1);
        let err = check(&text).unwrap_err();
        assert_eq!(err, "figures.machine: lacks energy.write_dpj_per_byte");
        let text = doc(10).replacen("\"machine\"", "\"machines\"", 1);
        assert_eq!(check(&text).unwrap_err(), "figures: lacks machine");
        let text = doc(10).replacen(header, "\"energy.write_dpj_per_byte\": 4.4", 1);
        let err = check(&text).unwrap_err();
        assert!(
            err.contains("write_dpj_per_byte is not a non-negative integer"),
            "{err}"
        );
    }

    #[test]
    fn rejects_busy_past_the_makespan() {
        let busy = Value::object([
            ("count", n(2)),
            ("sum", n(1060)),
            ("min", n(59)),
            ("max", n(1001)),
        ]);
        let err = metric_error("serve_4", "arch.HIPE.serve.replica_busy_cyc", busy);
        assert!(
            err.contains(
                "arch.HIPE.busy past the 1000 cyc makespan (busiest replica 1001, front end 50)"
            ),
            "{err}"
        );
        let err = metric_error(
            "serve_fail",
            "clean.arch.HIVE.serve.frontend_busy_cyc",
            n(1001),
        );
        assert!(
            err.contains("clean.arch.HIVE.busy past the 1000 cyc makespan"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_truncated_figures_document() {
        let full = doc(10);
        let cut = full
            .strip_suffix("\n  ]\n}\n")
            .expect("points close the document");
        let err = check(cut).unwrap_err();
        assert!(err.contains(&end_position(cut)), "{err}");
        assert!(err.contains("unexpected end of input"), "{err}");
    }

    #[test]
    fn rejects_a_duplicate_key_in_a_point() {
        let first = "\"arch.x86.cycles\": 90, ";
        let text = doc(10).replacen(first, &format!("{first}\"arch.x86.cycles\": 1, "), 1);
        let err = check(&text).unwrap_err();
        assert!(err.contains("duplicate key \"arch.x86.cycles\""), "{err}");
        let line = text
            .lines()
            .position(|l| l.contains("\"arch.x86.cycles\": 1,"))
            .unwrap()
            + 1;
        assert!(
            err.starts_with(&format!("figures document: {line}:")),
            "{err}"
        );
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(check("{}").is_err());
    }

    /// Renders a miniature service trace through the real writer: one
    /// query, one failover, one redispatch, eight recorder events.
    fn sample_trace(queries: u64, failovers: u64, redispatched: u64) -> String {
        use hipe_trace::{Tracer, TrackKind};
        let mut t = Tracer::new();
        let adm = t.track("admission", TrackKind::Sync);
        let fe = t.track("front-end", TrackKind::Sync);
        let q = t.track("queries", TrackKind::Async);
        let eng = t.track("s0.r0 engine", TrackKind::Sync);
        t.instant(adm, "arrival", 0, vec![("tag", 0usize.into())]);
        t.counter(adm, "batch_fill", 0, 1);
        t.span_on(fe, "batch 0", 5, 10, vec![("queries", 1usize.into())]);
        t.span_on(q, "q0", 0, 40, vec![("tag", 0usize.into())]);
        t.span_on(eng, "q0", 10, 40, vec![]);
        t.span_on(eng, "scan", 12, 30, vec![]);
        t.instant(eng, "fault.kill", 20, vec![]);
        t.instant(fe, "redispatch", 25, vec![("shard", 0usize.into())]);
        let scan_cyc = Value::object([
            ("count", 1u64.into()),
            ("sum", 30u64.into()),
            ("min", 30u64.into()),
            ("max", 30u64.into()),
        ]);
        let busy = [
            ("count", n(2)),
            ("sum", n(60)),
            ("min", n(25)),
            ("max", n(35)),
        ];
        t.to_chrome_json(Value::object([
            ("shards", 1u64.into()),
            ("events", t.len().into()),
            ("machine", EnergyModel::paper().metrics()),
            (
                "metrics",
                Value::object([
                    ("serve.failovers", failovers.into()),
                    ("serve.frontend_busy_cyc", 5u64.into()),
                    ("serve.makespan_cyc", 40u64.into()),
                    ("serve.queries", queries.into()),
                    ("serve.redispatched", redispatched.into()),
                    ("serve.replica_busy_cyc", Value::object(busy)),
                    ("shard0.cycles", 40u64.into()),
                    // 4.4 pJ for the byte written, 1.5 per cycle.
                    ("shard0.energy.cache_pj", pj(0)),
                    ("shard0.energy.dram_pj", pj(44 + 15 * 40)),
                    ("shard0.energy.link_pj", pj(0)),
                    ("shard0.energy.logic_pj", pj(0)),
                    ("shard0.energy.total_pj", pj(44 + 15 * 40)),
                    ("shard0.engine.instructions", 10u64.into()),
                    ("shard0.engine.squashed", 3u64.into()),
                    ("shard0.hmc.activations", 0u64.into()),
                    ("shard0.hmc.bytes_read", 0u64.into()),
                    ("shard0.hmc.bytes_written", 1u64.into()),
                    ("shard0.hmc.fu_ops", 0u64.into()),
                    ("shard0.hmc.link_bytes", 0u64.into()),
                    ("shard0.partition.scan_cyc", scan_cyc),
                ]),
            ),
        ]))
    }

    /// `check_trace`'s error on the sample trace with `from` replaced
    /// by `to`.
    fn metrics_error(from: &str, to: &str) -> String {
        let text = sample_trace(1, 1, 1);
        assert!(text.contains(from), "sample lacks {from}");
        check_trace(&text.replace(from, to)).unwrap_err()
    }

    #[test]
    fn metrics_reject_a_shard_that_never_ran() {
        let err = metrics_error("\"shard0.cycles\": 40", "\"shard0.cycles\": 0");
        assert!(
            err.contains("otherData.metrics.shard0.cycles: is 0"),
            "{err}"
        );
    }

    #[test]
    fn metrics_reject_a_scan_summary_of_no_partition() {
        let err = metrics_error("\"count\": 1", "\"count\": 0");
        assert!(err.contains("summarizes no partition"), "{err}");
    }

    #[test]
    fn metrics_reject_a_scan_minimum_above_its_maximum() {
        let err = metrics_error("\"min\": 30", "\"min\": 31");
        assert!(err.contains("has min 31, max 30"), "{err}");
    }

    #[test]
    fn metrics_reject_a_scan_past_the_shard_cycles() {
        let err = metrics_error("\"max\": 30", "\"max\": 41");
        assert!(
            err.contains("shard0.partition.scan_cyc: needs min <= max"),
            "{err}"
        );
    }

    #[test]
    fn metrics_reject_more_squashes_than_instructions() {
        let err = metrics_error(
            "\"shard0.engine.squashed\": 3",
            "\"shard0.engine.squashed\": 11",
        );
        assert!(err.contains("11 squashed of 10 instructions"), "{err}");
    }

    #[test]
    fn metrics_reject_a_key_past_the_shard_count() {
        let err = metrics_error("\"shard0.engine.squashed\"", "\"shard1.engine.squashed\"");
        assert!(
            err.contains("metrics.shard1.engine.squashed: names no shard below 1"),
            "{err}"
        );
    }

    #[test]
    fn metrics_reject_a_missing_value() {
        let err = metrics_error("\"shard0.partition.scan_cyc\"", "\"shard0.partition.scan\"");
        assert!(
            err.contains("otherData.metrics: lacks shard0.partition.scan_cyc"),
            "{err}"
        );
    }

    #[test]
    fn metrics_reject_a_non_integer_value() {
        let err = metrics_error(
            "\"shard0.engine.instructions\": 10",
            "\"shard0.engine.instructions\": 1.5",
        );
        assert!(
            err.contains("engine.instructions is not a non-negative integer"),
            "{err}"
        );
        let err = metrics_error("\"sum\": 30", "\"sum\": -30");
        assert!(
            err.contains("scan_cyc: sum is not a non-negative integer"),
            "{err}"
        );
    }

    #[test]
    fn metrics_accept_a_fraction_only_under_energy() {
        assert!(check_trace(&sample_trace(1, 1, 1)).is_ok());
        let err = metrics_error("\"shard0.energy.dram_pj\"", "\"shard0.hmc.dram_pj\"");
        assert!(
            err.contains("shard0.hmc.dram_pj is not a non-negative integer"),
            "{err}"
        );
        let err = metrics_error(
            "\"shard0.energy.dram_pj\": 64.4",
            "\"shard0.energy.dram_pj\": \"64.4\"",
        );
        assert!(
            err.contains("shard0.energy.dram_pj is not a number"),
            "{err}"
        );
    }

    #[test]
    fn metrics_reprice_every_shard_from_the_trace_header() {
        // A shard without caches prices no lookup.
        let err = metrics_error(
            "\"shard0.hmc.bytes_written\": 1",
            "\"shard0.hmc.bytes_written\": 2",
        );
        assert!(
            err.contains(
                "otherData.metrics: shard0.energy.dram_pj is 64.4 pJ, its counters price 68.8 pJ"
            ),
            "{err}"
        );
        let err = metrics_error(
            "\"energy.background_dpj_per_cyc\": 15",
            "\"energy.background_dpj_per_cyc\": 14",
        );
        assert!(err.contains("its counters price 60.4 pJ"), "{err}");
        let err = metrics_error("\"machine\"", "\"machines\"");
        assert_eq!(err, "trace.otherData: lacks machine");
    }

    #[test]
    fn metrics_reject_busy_past_the_makespan() {
        let err = metrics_error("\"max\": 35", "\"max\": 41");
        assert!(
            err.contains("otherData.metrics: busy past the 40 cyc makespan (busiest replica 41, front end 5)"),
            "{err}"
        );
        let err = metrics_error(
            "\"serve.frontend_busy_cyc\": 5",
            "\"serve.frontend_busy_cyc\": 41",
        );
        assert!(err.contains("front end 41"), "{err}");
    }

    #[test]
    fn trace_roundtrip_validates() {
        assert_eq!(check_trace(&sample_trace(1, 1, 1)), Ok((8, 1)));
    }

    #[test]
    fn trace_catches_report_reconciliation_drift() {
        let err = check_trace(&sample_trace(2, 1, 1)).unwrap_err();
        assert!(err.contains("query lifetime spans"), "{err}");
        let err = check_trace(&sample_trace(1, 0, 1)).unwrap_err();
        assert!(err.contains("fault.kill"), "{err}");
        let err = check_trace(&sample_trace(1, 1, 2)).unwrap_err();
        assert!(err.contains("redispatch instants"), "{err}");
        let text = sample_trace(1, 1, 1).replace("\"events\": 8", "\"events\": 9");
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("recorder wrote 9"), "{err}");
    }

    #[test]
    fn trace_catches_spans_that_straddle_or_escape_the_run() {
        // The scan child [12, 30] stretched to end at 45 straddles its
        // parent engine span's end at 40 (makespan raised out of the
        // way so only the nesting check can fire).
        let text = sample_trace(1, 1, 1)
            .replace("\"serve.makespan_cyc\": 40", "\"serve.makespan_cyc\": 60")
            .replace("\"ts\": 12, \"dur\": 18", "\"ts\": 12, \"dur\": 33");
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("straddles"), "{err}");
        // A span past the recorded makespan is rejected outright.
        let text = sample_trace(1, 1, 1)
            .replace("\"serve.makespan_cyc\": 40", "\"serve.makespan_cyc\": 39");
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("past the 39 cyc makespan"), "{err}");
    }

    #[test]
    fn trace_catches_unbalanced_async_pairs() {
        // Retag the async end as a second begin with a fresh id: the
        // original id never ends.
        let text = sample_trace(1, 1, 1).replace(
            "{\"ph\": \"e\", \"pid\": 0, \"tid\": 2, \"ts\": 40, \"id\": 0",
            "{\"ph\": \"b\", \"pid\": 0, \"tid\": 2, \"ts\": 40, \"id\": 7",
        );
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("async"), "{err}");
    }

    #[test]
    fn trace_rejects_a_truncated_document() {
        let full = sample_trace(1, 1, 1);
        let cut = full
            .strip_suffix("\n  ]\n}\n")
            .expect("events close the document");
        let err = check_trace(cut).unwrap_err();
        assert!(err.contains(&end_position(cut)), "{err}");
        assert!(err.contains("unexpected end of input"), "{err}");
    }

    #[test]
    fn trace_rejects_foreign_documents() {
        assert!(check_trace("{}").is_err());
        let err = check_trace("{\"traceEvents\": [\n]\n}").unwrap_err();
        assert!(err.contains("otherData"), "{err}");
    }
}
