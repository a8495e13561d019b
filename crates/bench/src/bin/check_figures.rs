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
//! `ServiceReport` counters in `otherData`, and its per-shard run
//! metrics are integers that agree with each other (see
//! [`check_metrics`]).

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

/// `arch`'s row of a per-arch point.
fn arch<'a>(point: &At<'a>, arch: &str) -> Result<At<'a>, String> {
    point.get("archs")?.get(arch)
}

/// Validates the figures document; returns the number of points.
fn check(text: &str) -> Result<usize, String> {
    let root = json::parse(text).map_err(|e| format!("figures document: {e}"))?;
    let doc = At::new("figures", &root);
    ensure(doc.str("bench") == Ok("figures"), || {
        "not a figures document (missing \"bench\": \"figures\")".into()
    })?;
    let archs = Value::Array(ARCHS.map(Value::from).to_vec());
    ensure(root.get("archs") == Some(&archs), || {
        format!("arch list drifted (expected {ARCHS:?})")
    })?;
    let mut points: Vec<(&str, At)> = Vec::new();
    for p in doc.items("points")? {
        let name = p.str("name")?;
        // Rules look points up by name, so a repeat would go unchecked.
        ensure(points.iter().all(|(seen, _)| *seen != name), || {
            format!("point {name} appears twice")
        })?;
        points.push((name, At::new(format!("point {name}"), p.value)));
    }
    ensure(!points.is_empty(), || "no sweep points found".into())?;
    let point = |wanted: &str, sweep: &str| {
        let found = points.iter().find(|(name, _)| *name == wanted);
        found
            .map(|(_, p)| p)
            .ok_or_else(|| format!("{sweep} point {wanted} missing"))
    };

    // Per-arch points: every machine ran, with nonempty phases. Service
    // and host_par rows describe the scheduler and the simulator, and
    // the partition sweep carries only the logic machines.
    for (name, p) in &points {
        if name.starts_with("serve_") || *name == "host_par" {
            continue;
        }
        let archs: &[&str] = if name.starts_with("par_") {
            &LOGIC_ARCHS
        } else {
            &ARCHS
        };
        for a in archs {
            let row = arch(p, a)?;
            ensure(row.u64("cycles")? > 0 && row.u64("scan_end")? > 0, || {
                format!("point {name}: arch {a} has empty phases")
            })?;
        }
    }
    // Aggregate sweep: a regression that drops the fused-aggregate rows
    // or zeroes their gather phase fails here.
    for wanted in AGGREGATE_POINTS {
        let p = point(wanted, "aggregate sweep")?;
        for a in ARCHS {
            ensure(arch(p, a)?.u64("gather_cycles")? > 0, || {
                format!("point {wanted}: arch {a} reports a zero-cycle aggregate phase")
            })?;
        }
    }
    // Partition sweep: more engines never make a logic machine slower.
    for a in LOGIC_ARCHS {
        let mut prev = (u64::MAX, u64::MAX);
        for wanted in PARTITION_POINTS {
            let row = arch(point(wanted, "partition sweep")?, a)?;
            let (scan, cycles) = (row.u64("scan_end")?, row.u64("cycles")?);
            ensure(scan <= prev.0 && cycles <= prev.1, || {
                format!("point {wanted}: {a} got slower with more engines (scan {} -> {scan}, cycles {} -> {cycles})", prev.0, prev.1)
            })?;
            prev = (scan, cycles);
        }
    }
    // Service sweep: adding cubes never lowers throughput.
    let mut qpgc = Vec::new();
    for wanted in SERVE_POINTS {
        let p = point(wanted, "service sweep")?;
        let q = p.u64("queries_per_gigacycle")?;
        let prev = qpgc.last().copied().unwrap_or(0);
        ensure(q > 0, || format!("point {wanted}: zero service throughput"))?;
        ensure(q >= prev, || {
            format!("point {wanted}: throughput fell with more cubes ({prev} -> {q} q/Gcyc)")
        })?;
        qpgc.push(q);
        let [p50, p95, p99] = [50, 95, 99].map(|pct| p.u64(&format!("p{pct}_cycles")));
        let (p50, p95, p99) = (p50?, p95?, p99?);
        ensure(p50 > 0 && p50 <= p95 && p95 <= p99, || {
            format!(
                "point {wanted}: latency percentiles disordered (p50 {p50}, p95 {p95}, p99 {p99})"
            )
        })?;
    }
    // Replication: one sub-query per replica, so two replicas per shard
    // owe 1.7x the single-replica throughput (integer-only).
    let (q4, q4x2) = (qpgc[2], qpgc[3]);
    let replicated = point("serve_4x2", "service sweep")?;
    ensure(replicated.u64("replicas") == Ok(2), || {
        "point serve_4x2 does not report 2 replicas".into()
    })?;
    ensure(q4x2 * 10 >= q4 * 17, || {
        format!("point serve_4x2: replication speedup below 1.7x ({q4} -> {q4x2} q/Gcyc)")
    })?;
    // Failover: the kill fired, every query was still served, and every
    // machine's answer is bit-identical to the fault-free run's.
    let fail = point("serve_fail", "failover")?;
    ensure(fail.u64("failovers")? > 0, || {
        "point serve_fail: no failover fired (the fault was a no-op)".into()
    })?;
    fail.u64("redispatched")?;
    let (clean, faulted) = (replicated.u64("queries")?, fail.u64("queries")?);
    ensure(clean == faulted, || {
        format!("point serve_fail: lost queries under failover ({clean} clean vs {faulted} with the fault)")
    })?;
    for a in ARCHS {
        let clean = fail.u64(&format!("digest_{a}_clean"))?;
        let fault = fail.u64(&format!("digest_{a}_fault"))?;
        ensure(clean == fault, || {
            format!("point serve_fail: {a} answer digest changed under failover ({clean} clean vs {fault} with the fault)")
        })?;
    }
    // Zone-map skip sweep: pruning fired on every machine and never cost
    // cycles; at ≤ 3 % selectivity it cut scan and dispatch completion
    // by 1.5x (integer-only: base * 10 >= pruned * 15).
    for wanted in SKIP_POINTS {
        let p = point(wanted, "zone-map skip")?;
        for a in ARCHS {
            let row = arch(p, a)?;
            let (cycles, base) = (row.u64("cycles")?, row.u64("base_cycles")?);
            ensure(cycles <= base, || {
                format!("point {wanted}: {a} pruned run slower than unpruned ({base} -> {cycles} cycles)")
            })?;
            ensure(row.u64("regions_pruned")? > 0, || {
                format!("point {wanted}: {a} pruned no regions")
            })?;
            if SKIP_TIGHT_POINTS.contains(&wanted) {
                let (scan, base_scan) = (row.u64("scan_end")?, row.u64("base_scan_end")?);
                let (dispatch, base_dispatch) =
                    (row.u64("dispatch_end")?, row.u64("base_dispatch_end")?);
                let win = base_scan * 10 >= scan * 15 && base_dispatch * 10 >= dispatch * 15;
                ensure(win, || {
                    format!("point {wanted}: {a} skip win below 1.5x (scan {base_scan} -> {scan}, dispatch {base_dispatch} -> {dispatch})")
                })?;
            }
        }
    }
    // Shard skipping: the scatter path skipped a shard, at no cycle cost.
    let skip = point("serve_skip", "shard-skipping")?;
    ensure(skip.u64("shards_skipped")? > 0, || {
        "point serve_skip: the scatter path skipped no shards".into()
    })?;
    let (cycles, base) = (skip.u64("cycles")?, skip.u64("base_cycles")?);
    ensure(cycles <= base, || {
        format!("point serve_skip: shard skipping slower than the full scatter ({base} -> {cycles} cycles)")
    })?;
    // Host-parallel co-simulation is bit-identical to serial. (Its
    // wall-clock rule is host-clock, so the figures bench enforces it
    // when it runs: `hipe_bench::host_par_not_slower`.)
    let par = point("host_par", "host-parallel")?;
    let workers = par.u64("workers")?;
    ensure(workers >= 2, || {
        format!("point host_par: parallel leg ran on {workers} worker(s)")
    })?;
    let (serial, parallel) = (par.u64("digest_serial")?, par.u64("digest_parallel")?);
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
    let (queries, failovers) = (other.u64("queries")?, other.u64("failovers")?);
    let (redispatched, recorded) = (other.u64("redispatched")?, other.u64("events")?);
    let makespan = other.u64("makespan_cyc")?;
    check_metrics(&other.get("metrics")?, other.u64("shards")?)?;

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

/// Validates `otherData.metrics`, each shard's `RunReport::metrics`
/// under a `shard{s}.` prefix. Every key names a shard below `shards`
/// and every value is an integer or a `{count, sum, min, max}` summary
/// of integers. Each shard ran (`cycles` > 0), its partitions'
/// scan-completion summary covers at least one partition and lies
/// inside the run (min ≤ max ≤ `cycles`), and its engine squashed no
/// more instructions than it received.
fn check_metrics(metrics: &At, shards: u64) -> Result<(), String> {
    let Value::Object(members) = metrics.value else {
        return Err(format!("{}: not an object", metrics.path));
    };
    for (key, value) in members {
        let shard = key
            .strip_prefix("shard")
            .and_then(|rest| rest.split_once('.'))
            .and_then(|(s, _)| s.parse::<u64>().ok());
        ensure(shard.is_some_and(|s| s < shards), || {
            format!("{}.{key}: names no shard below {shards}", metrics.path)
        })?;
        match value {
            Value::Object(_) => {
                let summary = metrics.get(key)?;
                for field in ["count", "sum", "min", "max"] {
                    summary.u64(field)?;
                }
            }
            _ => drop(metrics.u64(key)?),
        }
    }
    for s in 0..shards {
        let name = |metric: &str| format!("shard{s}.{metric}");
        let cycles = metrics.u64(&name("cycles"))?;
        ensure(cycles > 0, || {
            format!("{}.{}: is 0", metrics.path, name("cycles"))
        })?;
        let scan = metrics.get(&name("partition.scan_cyc"))?;
        let (count, min, max) = (scan.u64("count")?, scan.u64("min")?, scan.u64("max")?);
        ensure(count >= 1, || {
            format!("{}: summarizes no partition", scan.path)
        })?;
        ensure(min <= max && max <= cycles, || {
            format!(
                "{}: needs min <= max <= the shard's {cycles} cycles, has min {min}, max {max}",
                scan.path
            )
        })?;
        if metrics.value.get(&name("engine.squashed")).is_some() {
            let squashed = metrics.u64(&name("engine.squashed"))?;
            let instructions = metrics.u64(&name("engine.instructions"))?;
            ensure(squashed <= instructions, || {
                format!(
                    "{}.{}: {squashed} squashed of {instructions} instructions",
                    metrics.path,
                    name("engine.squashed")
                )
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> Value {
        v.into()
    }

    /// A per-arch point: `archs` each report the integer `row`.
    fn arch_point(name: &str, archs: &[&str], row: &[(&str, u64)]) -> Value {
        let row = Value::object(row.iter().map(|&(k, v)| (k, n(v))));
        Value::object([
            ("name", name.into()),
            (
                "archs",
                Value::object(archs.iter().map(|&a| (a, row.clone()))),
            ),
        ])
    }

    fn four_arch_point(name: &str, gather: u64) -> Value {
        let row = [("cycles", 100), ("dispatch_end", 1), ("scan_end", 90)];
        arch_point(
            name,
            &ARCHS,
            &[&row[..], &[("gather_cycles", gather)]].concat(),
        )
    }

    fn par_point(name: &str, cycles: u64) -> Value {
        let row = [
            ("cycles", cycles),
            ("dispatch_end", 1),
            ("scan_end", cycles - 10),
            ("gather_cycles", 5),
        ];
        arch_point(name, &LOGIC_ARCHS, &row)
    }

    /// A service row; `extra` members go last.
    fn service_point(
        name: &str,
        shape: [u64; 3],
        latency: [u64; 4],
        faults: [u64; 2],
        extra: Vec<(String, Value)>,
    ) -> Value {
        let [shards, replicas, queries] = shape;
        let [qpgc, p50, p95, p99] = latency;
        let mut members: Vec<(String, Value)> = [
            ("name", name.into()),
            ("shards", n(shards)),
            ("replicas", n(replicas)),
            ("queries", n(queries)),
            ("makespan_cycles", n(1000)),
            ("queries_per_gigacycle", n(qpgc)),
            ("p50_cycles", n(p50)),
            ("p95_cycles", n(p95)),
            ("p99_cycles", n(p99)),
            ("failovers", n(faults[0])),
            ("redispatched", n(faults[1])),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .into();
        members.extend(extra);
        Value::Object(members)
    }

    fn serve_point(name: &str, replicas: u64, qpgc: u64, p50: u64, p95: u64, p99: u64) -> Value {
        let latency = [qpgc, p50, p95, p99];
        service_point(name, [1, replicas, 96], latency, [0, 0], Vec::new())
    }

    fn fail_point(queries: u64, failovers: u64, hipe_fault_digest: u64) -> Value {
        let digests = ARCHS.iter().flat_map(|a| {
            let fault = if *a == "HIPE" { hipe_fault_digest } else { 11 };
            [
                (format!("digest_{a}_clean"), n(11)),
                (format!("digest_{a}_fault"), n(fault)),
            ]
        });
        let latency = [700, 100, 200, 300];
        let faults = [failovers, 6];
        service_point(
            "serve_fail",
            [4, 2, queries],
            latency,
            faults,
            digests.collect(),
        )
    }

    /// A skip point whose pruned phases all complete at `scan` and
    /// whose unpruned baseline completes at `base`.
    fn skip_point(name: &str, scan: u64, base: u64) -> Value {
        let row = [
            ("cycles", scan),
            ("dispatch_end", scan),
            ("scan_end", scan),
            ("gather_cycles", 0),
            ("regions_scanned", 2),
            ("regions_pruned", 62),
            ("base_cycles", base),
            ("base_dispatch_end", base),
            ("base_scan_end", base),
        ];
        arch_point(name, &ARCHS, &row)
    }

    fn serve_skip_point(skipped: u64, cycles: u64, base: u64) -> Value {
        Value::object([
            ("name", "serve_skip".into()),
            ("shards", n(4)),
            ("shards_skipped", n(skipped)),
            ("cycles", n(cycles)),
            ("base_cycles", n(base)),
        ])
    }

    fn host_par_point(digests: (u64, u64)) -> Value {
        Value::object([
            ("name", "host_par".into()),
            ("workers", n(4)),
            ("digest_serial", n(digests.0)),
            ("digest_parallel", n(digests.1)),
        ])
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
            points.push(serve_point(name, replicas, qpgc, 100, 200, 300));
        }
        points.push(fail_point(96, 1, 11));
        // Distinct bases keep the skip rows individually addressable
        // by the failure-injection tests' string replacements.
        points.push(skip_point("skip_1%", 10, 300));
        points.push(skip_point("skip_3%", 20, 200));
        points.push(skip_point("skip_10%", 60, 100));
        points.push(serve_skip_point(3, 40, 90));
        points.push(host_par_point((42, 42)));
        points
    }

    fn render(points: Vec<Value>) -> String {
        json::write(&Value::object([
            ("bench", "figures".into()),
            ("archs", Value::Array(ARCHS.map(Value::from).to_vec())),
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
        let err = with_repeat(serve_point("serve_4x2", 2, 1, 100, 200, 300)).unwrap_err();
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
        let text = doc(10).replace("\"digest_parallel\": 42", "\"digest_parallel\": 43");
        let err = check(&text).unwrap_err();
        assert!(err.contains("diverged from serial"), "{err}");
    }

    #[test]
    fn rejects_a_serial_host_par_leg() {
        let text = doc(10).replace(
            "\"name\": \"host_par\", \"workers\": 4",
            "\"name\": \"host_par\", \"workers\": 1",
        );
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
        let text = doc(10).replace("\"HIVE\": {\"cycles\": 100", "\"hive\": {\"cycles\": 100");
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
        let text = doc(10).replace(
            "\"p95_cycles\": 200, \"p99_cycles\": 300",
            "\"p95_cycles\": 400, \"p99_cycles\": 300",
        );
        assert!(check(&text).unwrap_err().contains("disordered"));
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
        let text = doc(10).replace(
            "\"name\": \"serve_4x2\", \"shards\": 1, \"replicas\": 2",
            "\"name\": \"serve_4x2\", \"shards\": 1, \"replicas\": 1",
        );
        let err = check(&text).unwrap_err();
        assert!(err.contains("does not report 2 replicas"), "{err}");
    }

    #[test]
    fn rejects_a_failover_run_whose_fault_never_fired() {
        // "failovers": 1 appears only in the serve_fail point.
        let text = doc(10).replace("\"failovers\": 1", "\"failovers\": 0");
        let err = check(&text).unwrap_err();
        assert!(err.contains("no failover fired"), "{err}");
    }

    #[test]
    fn rejects_query_loss_under_failover() {
        let text = doc(10).replace(
            "\"queries\": 96, \"makespan_cycles\": 1000, \"queries_per_gigacycle\": 700",
            "\"queries\": 95, \"makespan_cycles\": 1000, \"queries_per_gigacycle\": 700",
        );
        let err = check(&text).unwrap_err();
        assert!(err.contains("lost queries"), "{err}");
    }

    #[test]
    fn rejects_an_answer_digest_changed_by_failover() {
        assert!(check(&doc(10)).is_ok());
        let err = check(
            &doc_full(10, [800, 400, 200, 100], [100, 180, 300, 600])
                .replace("\"digest_HIPE_fault\": 11", "\"digest_HIPE_fault\": 12"),
        )
        .unwrap_err();
        assert!(err.contains("HIPE answer digest changed"), "{err}");
        // A missing digest pair is as fatal as a mismatched one.
        let err = check(&doc(10).replace("digest_x86_clean", "digest_x86_gone")).unwrap_err();
        assert!(err.contains("digest_x86_clean"), "{err}");
    }

    #[test]
    fn rejects_missing_skip_points() {
        let text = doc(10).replace("skip_3%", "skip_33%");
        assert!(check(&text).unwrap_err().contains("skip_3%"));
    }

    #[test]
    fn rejects_pruning_costing_cycles() {
        // skip_10% carries base 100; dropping the baseline below the
        // pruned run's 60 cycles means pruning made the machine slower.
        let text = doc(10).replace("\"base_cycles\": 100", "\"base_cycles\": 40");
        let err = check(&text).unwrap_err();
        assert!(err.contains("skip_10%") && err.contains("slower"), "{err}");
    }

    #[test]
    fn rejects_a_skip_row_that_pruned_nothing() {
        let text = doc(10).replace("\"regions_pruned\": 62", "\"regions_pruned\": 0");
        let err = check(&text).unwrap_err();
        assert!(err.contains("pruned no regions"), "{err}");
    }

    #[test]
    fn rejects_a_skip_win_below_15x_at_low_selectivity() {
        // skip_3% prunes to 20 cycles against base 200; a baseline of
        // 25 leaves only a 1.25x scan win — short of the 1.5x owed at
        // <= 3 % selectivity. skip_10% owes no such margin.
        let text = doc(10).replace("\"base_scan_end\": 200", "\"base_scan_end\": 25");
        let err = check(&text).unwrap_err();
        assert!(
            err.contains("skip_3%") && err.contains("below 1.5x"),
            "{err}"
        );
        assert!(check(&doc(10).replace("\"base_scan_end\": 100", "\"base_scan_end\": 70")).is_ok());
    }

    #[test]
    fn rejects_a_scatter_path_that_never_skipped() {
        let text = doc(10).replace("\"shards_skipped\": 3", "\"shards_skipped\": 0");
        let err = check(&text).unwrap_err();
        assert!(err.contains("skipped no shards"), "{err}");
        let text = doc(10).replace("serve_skip", "serve_skap");
        assert!(check(&text).unwrap_err().contains("serve_skip"));
    }

    #[test]
    fn point_field_requires_a_delimited_top_level_key() {
        // The key's text inside a string value (escaped quotes), as the
        // tail of a longer field name, or inside a nested object is not
        // the field.
        let real = "\"queries_per_gigacycle\": 180, ";
        let decoys = [
            "\"note\": \"was \\\"queries_per_gigacycle\\\": 180\", ",
            "\"old_queries_per_gigacycle\": 180, ",
            "\"archs\": {\"HIPE\": {\"queries_per_gigacycle\": 180}}, ",
        ];
        assert_eq!(doc(10).matches(real).count(), 1, "serve_2 is the only 180");
        for decoy in decoys {
            let text = doc(10).replace(real, decoy);
            assert_eq!(
                check(&text),
                Err("point serve_2: lacks queries_per_gigacycle".into()),
                "{decoy}"
            );
        }
        // A real field parses wherever it sits in the row.
        let moved = doc(10).replace(real, "").replace(
            "\"name\": \"serve_2\", ",
            &format!("{real}\"name\": \"serve_2\", "),
        );
        assert_eq!(check(&moved), Ok(19));
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
        let text = doc(10).replacen("\"cycles\": 100, ", "\"cycles\": 100, \"cycles\": 1, ", 1);
        let err = check(&text).unwrap_err();
        assert!(err.contains("duplicate key \"cycles\""), "{err}");
        let line = text
            .lines()
            .position(|l| l.contains("\"cycles\": 1,"))
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
        t.to_chrome_json(Value::object([
            ("shards", 1u64.into()),
            ("queries", queries.into()),
            ("makespan_cyc", 40u64.into()),
            ("failovers", failovers.into()),
            ("redispatched", redispatched.into()),
            ("events", t.len().into()),
            (
                "metrics",
                Value::object([
                    ("shard0.cycles", 40u64.into()),
                    ("shard0.engine.instructions", 10u64.into()),
                    ("shard0.engine.squashed", 3u64.into()),
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
            .replace("\"makespan_cyc\": 40", "\"makespan_cyc\": 60")
            .replace("\"ts\": 12, \"dur\": 18", "\"ts\": 12, \"dur\": 33");
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("straddles"), "{err}");
        // A span past the recorded makespan is rejected outright.
        let text = sample_trace(1, 1, 1).replace("\"makespan_cyc\": 40", "\"makespan_cyc\": 39");
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
