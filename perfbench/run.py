#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload of it.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan_sweep --seed 2018 --seconds 10 --trace 0

The benchmark binary is the Rust package in this directory
(``hipe-perfbench``). It is built in release mode, offline, into
``$CARGO_TARGET_DIR`` (default ``.bench_build`` at the repository root),
then run once in its own process so that its peak resident set belongs to
the workload alone. The binary reports each metric as a name and a value;
this script checks the names against ``BENCHMARK.json``, the single list
of metrics, workloads and units, and prints a table of the metrics with
their unit, kind and layer (from ``LAYERS`` below), then, as the last
line, the JSON result. A traced run (``--trace 1``) also writes its
host-clock spans to
``$CARGO_TARGET_DIR/perfbench-spans/<workload>-seed<seed>.json``.

Exits non-zero without printing a result when the build or the run fails,
or when the binary reports a metric ``BENCHMARK.json`` does not declare.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170

EXACT = "exact"        # simulated: identical on every run of one seed
HOST = "host-noisy"    # host wall-clock or memory: carries the host's noise

# The layer map of the per-layer metrics: for each metric-name prefix (the
# longest one that matches wins), the layer (module) it measures, whether
# it is exact or host-noisy, the end-to-end metrics a change to that layer
# should move, and on which workloads.
LAYERS = [
    ("db.generate_ms", "hipe-db", HOST, ("setup_s",), "skip_clustered most"),
    ("db.zonemap_ms", "hipe-db", HOST, ("setup_s",), "skip_clustered most"),
    ("db.materialize_ms", "hipe-db", HOST, ("setup_s", "peak_rss_mib"), "skip_clustered most"),
    ("db.image_mib", "hipe-db", EXACT, ("peak_rss_mib",), "all"),
    ("compiler.lower_ms.", "hipe-compiler", HOST, ("host_s",), "scan_sweep, skip_clustered"),
    ("compiler.instrs.", "hipe-compiler", EXACT, ("host_s", "peak_rss_mib"), "scan_sweep"),
    ("compiler.ns_per_instr.", "hipe-compiler", HOST, ("host_s",), "scan_sweep"),
    ("compiler.regions_pruned_ratio", "hipe-compiler", EXACT, ("host_s", "sim_hipe_mcyc"),
     "skip_clustered"),
    ("core.run_plan_ms.", "hipe", HOST, ("host_s",), "scan_sweep, skip_clustered"),
    ("core.ns_per_sim_instr.", "hipe", HOST, ("host_s",), "scan_sweep"),
    ("cpu.", "hipe-cpu", EXACT, ("sim_speedup_x86", "host_s"), "scan_sweep"),
    ("cache.", "hipe-cache", EXACT, ("sim_speedup_x86", "host_s"), "scan_sweep"),
    ("hmc.", "hipe-hmc", EXACT, ("sim_hipe_mcyc", "sim_hipe_energy_uj"), "scan_sweep"),
    ("logic.", "hipe-logic", EXACT, ("sim_hipe_mcyc", "sim_hipe_energy_uj", "host_s"),
     "scan_sweep"),
    ("phase.", "hipe-logic", EXACT, ("sim_hipe_mcyc",),
     "scan_sweep (Q6), skip_clustered (3% window)"),
    ("serve.cluster_build_ms", "hipe-serve", HOST, ("setup_s",), "serve_failover, skip_clustered"),
    ("serve.cluster_session_ms", "hipe-serve", HOST, ("setup_s", "peak_rss_mib"),
     "serve_failover"),
    ("serve.run_service_ms.", "hipe-serve", HOST, ("host_s", "peak_rss_mib"), "serve_failover"),
    ("serve.materializations", "hipe-serve", EXACT, ("host_s", "peak_rss_mib"), "serve_failover"),
    ("serve.compilations", "hipe-serve", EXACT, ("host_s",), "serve_failover"),
    ("serve.replica_util", "hipe-serve", EXACT, ("sim_qpgc",), "serve_failover"),
    ("serve.frontend_util", "hipe-serve", EXACT, ("sim_qpgc", "sim_p99_mcyc"), "serve_failover"),
    ("serve.admission_stall_mcyc", "hipe-serve", EXACT, ("sim_p99_mcyc",), "serve_failover"),
    ("serve.subquery_p99_mcyc", "hipe-serve", EXACT, ("sim_p99_mcyc",), "serve_failover"),
    ("serve.failovers", "hipe-serve", EXACT, ("sim_qpgc",), "serve_failover"),
    ("serve.redispatched", "hipe-serve", EXACT, ("sim_qpgc",), "serve_failover"),
    ("serve.cluster_run_ms", "hipe-serve", HOST, ("host_s",), "skip_clustered"),
    ("serve.shards_skipped", "hipe-serve", EXACT, ("host_s", "sim_hipe_mcyc"), "skip_clustered"),
    # Tracing is off in the end-to-end runs, so these move none of them;
    # they keep the cycle-domain tracer's overhead measurable.
    ("trace.service_traced_ms", "hipe-trace", HOST, (), "serve_failover"),
    ("trace.overhead_ratio", "hipe-trace", HOST, (), "serve_failover"),
    ("trace.events", "hipe-trace", EXACT, (), "serve_failover"),
    # Where a pass's host time went: traced minus untraced fastest pass,
    # and each span layer's self time in one pass.
    ("bench.span_overhead_s", "perfbench", HOST, (), "all"),
    ("self_ms.", "perfbench", HOST, ("host_s",), "all"),
]


def layer_of(name):
    """The LAYERS entry of a per-layer metric, or None."""
    matches = [e for e in LAYERS if name.startswith(e[0])]
    return max(matches, key=lambda e: len(e[0]), default=None)


def kind_of(name, trace):
    """Exact (simulated) or host-noisy."""
    if trace:
        return layer_of(name)[2]
    return EXACT if name.startswith("sim_") else HOST


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads))
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="table-size multiplier (the smoke test uses tiny tables)")
    args = parser.parse_args()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    unmapped = [m["name"] for m in spec["per_layer"] if layer_of(m["name"]) is None]
    if unmapped:
        return fail(f"per-layer metrics missing from LAYERS: {unmapped}")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if built.returncode != 0:
        return fail("build failed")

    cmd = [os.path.join(target, "release", "hipe-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if args.trace:
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"run failed: {e}")
    lines = ran.stdout.rstrip("\n").splitlines()
    if ran.returncode != 0 or not lines:
        return fail(f"benchmark binary exited with {ran.returncode}")
    try:
        out = json.loads(lines[-1])
        values = out["values"]
    except (ValueError, KeyError, TypeError):
        return fail("malformed last line from the benchmark binary")
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        return fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = [n for n in names if n not in values]
    if missing and not args.trace:
        return fail(f"end-to-end metrics not reported: {missing}")
    if out["attempted"] < 1:
        return fail("no run was attempted")

    # A per-layer metric the binary does not report belongs to a layer
    # the workload does not call: it reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print("\n".join(lines[:-1]))
    print(f"# why: {workloads[args.workload]}")
    for m in declared:
        row = f"#   {m['name']:<36} {metrics[m['name']]['value']:>18.6f} {m['unit']:<9} " \
              f"{kind_of(m['name'], args.trace)}"
        if args.trace:
            _, layer, _, moves, where = layer_of(m["name"])
            row += f"  {layer}: {', '.join(moves) or 'none'} -> {where}"
        print(row)
    print(json.dumps({"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
