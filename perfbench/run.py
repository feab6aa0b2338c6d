#!/usr/bin/env python3
"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload batch-sat --seed 1 --seconds 20 --trace 0

Builds the measuring program and eco_cli from source, runs one workload,
checks its outputs and prints every metric.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of a traced run, plus the tracing overhead on each
end-to-end metric.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = {"batch-sat": "inproc", "signoff-certify": "inproc", "serve-edit": "serve"}

HARNESS = "_build/default/perfbench/harness.exe"
ECO_CLI = "_build/default/bin/eco_cli.exe"
WORKDIR = ".perfbench"


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def end_to_end(raw, traced):
    """The ten end-to-end metrics over the traced or the untraced samples
    of one run, with the tail's percentile and sample count."""
    k = 1 if traced else 0
    # sample: [op, ms, ok, traced, cached, cost, gates, depth]
    samples = [s for s in raw["samples"] if s[3] == traced]
    if not samples:
        return None, "no samples"
    ms = [s[1] for s in samples]
    tail = stats.tail(ms)
    if tail is None:
        return None, "%d samples: too few for a tail" % len(ms)
    first = {}
    for s in samples:
        first.setdefault(s[0], s)
    if len(first) != len(raw["labels"]):
        return None, "not every op ran"
    values = {
        "setup_s": stats.median(raw["setup_s"][k]),
        "ops_per_s": len(samples) / raw["wall_s"][k],
        "latency_p50_ms": stats.median(ms),
        "latency_tail_ms": tail[1],
        "latency_geomean_ms": stats.geomean(ms),
        "ok_share": sum(1 for s in samples if s[2]) / len(samples),
        "cost_total": sum(s[5] for s in first.values()),
        "gates_total": sum(s[6] for s in first.values()),
        "depth_total": sum(s[7] for s in first.values()),
        "peak_rss_mb": raw["peak_rss_mb"][k],
    }
    info = "%d samples, tail = p%g with %d beyond" % (len(ms), tail[0], tail[2])
    return values, info


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", HARNESS.replace("_build/default/", "./"),
         ECO_CLI.replace("_build/default/", "./")],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        print(r.stdout, file=sys.stderr)
        die("build failed", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib/eco/engine.ml", "bin/eco_cli.ml", "perfbench/harness.ml"):
        if not os.path.exists(os.path.join(root, need)):
            die("run from the repository root: %s is missing" % need)
    # Metric names and units are those BENCHMARK.json declares.
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build(root)

    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out = os.path.join(WORKDIR, "raw-%s.json" % tag)
    trace_out = os.path.join(WORKDIR, "trace-%s.json" % tag)
    cmd = [HARNESS, WORKLOADS[args.workload], "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out, "--trace-out", trace_out,
           "--eco-cli", ECO_CLI, "--workdir", WORKDIR]
    t0 = time.time()
    # Own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("harness timed out", 1)
    if code != 0:
        die("harness exited with status %d" % code, 1)
    with open(os.path.join(root, out)) as f:
        raw = json.load(f)

    failed = sum(1 for s in raw["samples"] if not s[2])
    for msg in raw["failure_msgs"]:
        print("FAILED: " + msg)
    untraced, info = end_to_end(raw, False)
    print("%s seed %d: %s (%.1f s)" % (args.workload, args.seed, info, time.time() - t0))
    correct = raw["failures"] == 0 and failed == 0 and untraced is not None
    metrics = {}
    if args.trace == 0:
        if untraced is not None:
            metrics = {m["name"]: {"value": untraced[m["name"]], "unit": m["unit"]}
                       for m in bench["end_to_end"]}
    else:
        traced, tinfo = end_to_end(raw, True)
        print("traced: " + tinfo)
        correct = correct and traced is not None
        layers = raw["layers"]
        hits = [s[1] for s in raw["samples"] if s[4] == 1]
        misses = [s[1] for s in raw["samples"] if s[4] == 0]
        layers["serve.hit_latency_p50_ms"] = stats.median(hits) if hits else 0.0
        layers["serve.miss_latency_p50_ms"] = stats.median(misses) if misses else 0.0
        if traced is not None and untraced is not None:
            for name in untraced:
                layers["trace_overhead." + name] = traced[name] - untraced[name]
        # A layer the workload cannot observe reads 0 (see README.md).
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
        print("trace spans: " + trace_out)
        if layers.get("cert.failed", 0) or layers.get("cache.guard_failed", 0):
            correct = False
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": len(raw["samples"]),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
