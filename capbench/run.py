#!/usr/bin/env python3
"""The capmem benchmark.

Builds capbench_driver (this directory's CMake project, against ../src) and
runs one workload, then prints one JSON object as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. A human-readable summary goes to
stderr. Run it from the repository root:

  python3 capbench/run.py --workload stream --seed 1 --seconds 15 --trace 0
  python3 capbench/run.py --selfcheck            # digests, jobs=1 vs jobs=2
  python3 capbench/run.py --record-digests 1 1000

See README.md in this directory for the workloads and metrics, and
compare.py for comparing two sets of runs.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("stream", "sort", "collectives", "serve")
BUILD_BASE = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BUILD_DIR = os.path.join(BUILD_BASE, "capbench")
DRIVER = os.path.join(BUILD_DIR, "capbench_driver")
SCRATCH = os.path.join(BUILD_BASE, "capbench-scratch")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = "BENCHMARK.json"
# Set-up-only runs, half before and half after the main run; setup_s is the
# lower quartile of their set-up times and the main run's.
SETUP_PROBES = 24
DEADLINE_S = 170.0
START = time.monotonic()


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def remaining(limit=DEADLINE_S):
    return max(1.0, limit - (time.monotonic() - START))


def build():
    """Configures once and builds the driver; all tool output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "capbench_driver", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"capbench: build step failed: {' '.join(cmd)}")


def driver(args, timeout):
    """Runs the driver and returns its JSON document."""
    env = dict(os.environ, CAPMEM_LOG="error")
    t0 = time.time()
    try:
        r = subprocess.run(
            [DRIVER, *args, "--t0", repr(t0), "--scratch", SCRATCH],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"capbench: driver timed out after {timeout:.0f} s")
    if r.returncode != 0:
        log(r.stderr[-4000:])
        raise SystemExit(f"capbench: driver exited {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("capbench: driver printed nothing")
    return json.loads(lines[-1])


def load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def spec_metrics(kind):
    spec = load_json(SPEC, None)
    if spec is None:
        raise SystemExit(f"capbench: {SPEC} not found in {os.getcwd()}")
    return spec[kind]


def host_time(values):
    """A run's estimate of a host time from repeated measurements (passes
    or set-ups): the lower quartile.

    Contention from other tenants of a shared host only ever adds time and
    varies from one measurement to the next, so the lower quartile is
    steadier from run to run than the median (see README.md).
    """
    return stats.percentile(values, 25)


def end_to_end(doc, setups):
    passes = doc["passes"]
    wall = host_time([p["wall_s"] for p in passes])
    return {
        "wall_s": wall,
        "setup_s": host_time(setups),
        "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in passes]),
        "err_pct": stats.median([p["err_pct"] for p in passes]),
    }


def per_layer(doc, workload):
    """Host-time layers from the untraced passes, counters from the first
    traced pass, isolated per-op timings from the driver."""
    passes = doc["passes"]
    traced = doc["trace"]["passes"]
    out = dict(traced[0]["layers"])
    out.update(doc["trace"]["layers"])
    wall = host_time([p["wall_s"] for p in passes])
    line_ops = out.get("sim.mem.line_ops", 0.0)
    out["sim.host_ns_per_line_op"] = wall * 1e9 / line_ops if line_ops else 0.0
    for name in ("bench.stream_bench_s", "bench.run_suite_s", "model.fit_s",
                 "coll.sweep_s", "sort.merge_sort_s",
                 "sort.make_sort_model_s"):
        out[name] = host_time([p["spans"].get(name, 0.0) for p in passes])
    if workload == "serve":
        requests = [v for p in passes for v in p["op_ms"]]
        out["serve.request_ms.p50"] = stats.percentile(requests, 50)
        out["serve.request_ms.p99"] = stats.percentile(requests, 99)
    for name in ("serve.hit_ms", "serve.miss_ms"):
        samples = [v for p in passes
                   for v in p["layers"].get(name + ".samples", [])]
        out.pop(name + ".samples", None)
        out[name + ".p50"] = stats.percentile(samples, 50) if samples else 0.0
        out[name + ".p99"] = stats.percentile(samples, 99) if samples else 0.0
    out["sim.footprint_mb"] = (stats.median([p["peak_rss_mb"] for p in passes])
                               - doc["rss_setup_mb"])
    out["obs.trace_overhead_pct"] = 100.0 * (
        host_time([p["wall_s"] for p in traced]) / wall - 1.0)
    return out


def check_digests(workload, seed, passes):
    """Counts passes whose digest differs from the recorded one (or, for an
    unrecorded seed, from the run's first pass)."""
    recorded = load_json(DIGESTS, {}).get(workload, {}).get(str(seed))
    reference = recorded or passes[0]["digest"]
    bad = [p["digest"] for p in passes if p["digest"] != reference]
    if bad:
        log(f"capbench: digest mismatch on {workload} seed {seed}: "
            f"expected {reference}, got {sorted(set(bad))}")
    return len(bad), recorded is not None


def run_benchmark(a):
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed)]

    def probe_setups(n):
        return [driver(args + ["--setup-only"], remaining())["setup_s"]
                for _ in range(n)]

    setups = probe_setups(SETUP_PROBES // 2)
    run_args = args + ["--seconds", str(a.seconds)]
    if a.trace:
        run_args.append("--trace")
    doc = driver(run_args, remaining())
    setups += [doc["setup_s"]] + probe_setups(SETUP_PROBES // 2)
    passes = doc["passes"] + doc.get("trace", {}).get("passes", [])
    mismatches, recorded = check_digests(a.workload, a.seed, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + mismatches

    kind = "per_layer" if a.trace else "end_to_end"
    values = per_layer(doc, a.workload) if a.trace else end_to_end(doc, setups)
    metrics = {}
    for m in spec_metrics(kind):
        # A layer the workload never enters reads 0; every end-to-end metric
        # must be measured.
        if m["name"] not in values and not a.trace:
            raise SystemExit(f"capbench: no value for metric {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}

    n, p, v = stats.tail(doc["passes"][0]["op_ms"])
    log(f"capbench {a.workload} seed {a.seed}: {len(doc['passes'])} untraced "
        f"passes, digest {passes[0]['digest']} "
        f"({'recorded' if recorded else 'unrecorded seed'}), "
        f"{failed}/{attempted} failed; {n} op samples per pass, highest "
        f"resolved percentile " + (f"p{p} = {v:.3f} ms" if p else "none"))
    for name, m in metrics.items():
        log(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def one_digest(workload, seed, extra=()):
    doc = driver(["--workload", workload, "--seed", str(seed), "--seconds",
                  "1", "--passes", "1", *extra], timeout=600)
    return doc["passes"][0]["digest"]


def record_digests(seeds):
    build()
    table = load_json(DIGESTS, {})
    for w in WORKLOADS:
        for s in seeds:
            table.setdefault(w, {})[str(s)] = one_digest(w, s)
            log(f"{w} seed {s}: {table[w][str(s)]}")
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


def selfcheck():
    build()
    ok = True
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec_metrics(kind)]
        if len(set(names)) != len(names):
            log(f"selfcheck: duplicate {kind} metric names")
            ok = False
    j1 = one_digest("collectives", 1, ["--jobs", "1"])
    j2 = one_digest("collectives", 1, ["--jobs", "2"])
    log(f"selfcheck: collectives jobs=1 {j1}, jobs=2 {j2}")
    ok &= j1 == j2
    for w, seeds in sorted(load_json(DIGESTS, {}).items()):
        for s, want in sorted(seeds.items()):
            got = one_digest(w, int(s))
            log(f"selfcheck: {w} seed {s}: {got} "
                f"{'ok' if got == want else 'MISMATCH, recorded ' + want}")
            ok &= got == want
    log("selfcheck: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record-digests", type=int, nargs="+", metavar="SEED")
    a = ap.parse_args()
    if a.selfcheck:
        return selfcheck()
    if a.record_digests:
        record_digests(a.record_digests)
        return 0
    if not a.workload:
        ap.error("--workload is required")
    run_benchmark(a)
    return 0


if __name__ == "__main__":
    sys.exit(main())
