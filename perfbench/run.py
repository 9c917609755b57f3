#!/usr/bin/env python3
"""ZugChain benchmark: host telegram throughput and juridical latency.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_steady --seed 7 --seconds 20 --trace 0

Builds perfbench/ (and the simulator libraries under src/) into
.bench_build/perfbench, runs the zc_perfbench program on one workload and
prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1 runs
one seed untraced and traced (profiler + trace sink + timed steps), twice
each in one process, which checks that all four simulated the same thing
(equal fingerprints), and reports the per-layer metrics. `attempted` is the number of bus
telegrams polled, `failed` the number of them that never made it onto the
chain. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each run simulates K sub-runs of one fixed virtual length, seeded from
# --seed, each in its own process, and pools them. One sub-run is one draw
# of the seed-dependent tails (which export bursts line up, where faults
# land the view changes), and one draw of the host's per-process speed.
# K follows --seconds: about one sub-run per `subrun_wall_s` (measured
# untraced on a 4-vCPU Xeon VM), and at least `min_subruns`: enough for 10
# samples beyond every percentile, and under faults enough draws for a
# steady archive-lag median.
WORKLOADS = {
    "fleet_steady": {"virtual_s": 15.0, "subrun_wall_s": 3.5, "min_subruns": 1},
    "consist_ed25519": {"virtual_s": 35.0, "subrun_wall_s": 6.0, "min_subruns": 4},
    "fleet_chaos": {"virtual_s": 80.0, "subrun_wall_s": 5.5, "min_subruns": 6},
}

# Set-up samples (batches of constructions, 10 ms each) timed before the
# run in every untraced sub-run.
SETUPS = 10

# Host speed the throughput is stated for: the wall seconds zc_perfbench's
# reference workload takes on it (about its fastest on a 4-vCPU Xeon VM).
REFERENCE_S = 0.04

RUN_TIMEOUT_S = 170


def metric_table(section):
    """name -> unit of one metric list of BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds zc_perfbench (a no-op when up to date); returns
    its path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", bdir, "--target", "zc_perfbench", "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("benchmark build failed: " + " ".join(cmd))
    return os.path.join(bdir, "zc_perfbench")


def run_bench(binary, workload, seed, virtual_s, setups, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--virtual-s", repr(virtual_s), "--setups", str(setups)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ)
    env.pop("ZC_HOST_THREADS", None)  # solo event loop only
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit("zc_perfbench timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("zc_perfbench failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def subrun_seeds(workload, seed, seconds):
    w = WORKLOADS[workload]
    k = max(w["min_subruns"], round(seconds / w["subrun_wall_s"]))
    return [seed * 1009 + i for i in range(k)]


def percentile(samples, q):
    """Linear-interpolated percentile (as metrics::Summary computes it), or
    None when fewer than 10 samples lie beyond it."""
    n = len(samples)
    if n == 0 or n - min(math.ceil(q * n), n) < 10:
        return None
    s = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] * (1 - (pos - lo)) + s[hi] * (pos - lo)


def end_to_end(runs):
    """Pools the sub-runs as if they were one run: percentiles over all
    samples, maxima over all sub-runs, ratios over the summed counts. Host
    metrics are scaled to a reference host speed."""
    values = {}
    for name, key, q in (("bus_to_logged_p50_ms", "bus_to_logged_ms", 0.50),
                         ("bus_to_logged_p99_ms", "bus_to_logged_ms", 0.99),
                         ("archive_lag_p50_s", "archive_lag_s", 0.50),
                         ("archive_lag_p95_s", "archive_lag_s", 0.95)):
        pooled = [x for r in runs for x in r["samples"][key]]
        values[name + ".n"] = len(pooled)
        p = percentile(pooled, q)
        if p is not None:
            values[name] = p
    latencies = [x for r in runs for x in r["samples"]["bus_to_logged_ms"]]
    if latencies:
        values["bus_to_logged_mean_ms"] = statistics.fmean(latencies)
        values["bus_to_logged_mean_ms.n"] = len(latencies)
    for name in ("service_gap_max_s", "node_cpu_pct_max", "node_mem_peak_mb"):
        values[name] = max(r["e2e"][name] for r in runs)
    window_logged = sum(r["window_logged"] for r in runs)
    values["net_bytes_per_telegram"] = sum(
        r["e2e"]["net_bytes_per_telegram"] * r["window_logged"] for r in runs
    ) / max(1, window_logged)
    unlogged = sum(r["unlogged"] for r in runs)
    polled = sum(r["polled"] for r in runs)
    values["unlogged_share"] = unlogged / polled if polled else 0.0
    values["logged_share"] = 1.0 - values["unlogged_share"]
    # Interference from other tenants only ever slows the host down, by
    # tens of percent; it differs between processes (construction times of
    # one process agree within a few percent, those of two differ by up to
    # 1.8x) and drifts over minutes. So both host metrics are scaled by the
    # speed the host gave the sub-run, gauged by the fastest run of a fixed
    # reference workload next to the measurement, relative to REFERENCE_S;
    # the median over sub-runs is reported. Throughput is unique telegrams
    # logged, summed over trains, per wall second of the run phase (drain
    # and final audit included); set-up time is a sub-run's fastest batch.
    values["host_telegrams_per_s"] = statistics.median(
        r["host"]["logged"] / r["host"]["run_wall_s"]
        * min(r["host"]["reference_s"]) / REFERENCE_S for r in runs)
    values["setup_s"] = statistics.median(
        min(r["setup_s"]) * REFERENCE_S / min(r["setup_reference_s"]) for r in runs)
    values["peak_rss_mb"] = statistics.median(r["host"]["peak_rss_mb"] for r in runs)
    return values


def per_layer(traced, table):
    values = dict(traced["layer"])
    host = dict(traced["host"])
    values.update(host.pop("traced_counts"))
    values.update(host)
    values["trace.overhead_pct"] = traced["trace_overhead_pct"]
    # A percentile without 10 samples beyond it is missing; its ".n"
    # metric says how many samples there were.
    for name in table:
        values.setdefault(name, 0.0)
    return values


def describe(name, values, unit):
    n = values.get(name + ".n")
    if name not in values:
        return "%-30s missing (n=%s)" % (name, n)
    suffix = "  (n=%d)" % n if n is not None else ""
    return "%-30s %.6g %s%s" % (name, values[name], unit, suffix)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    seeds = subrun_seeds(args.workload, args.seed, args.seconds)
    vs = WORKLOADS[args.workload]["virtual_s"]
    log("workload %s seed %d: %d sub-run(s) of %.0f virtual seconds"
        % (args.workload, args.seed, len(seeds), vs))

    if args.trace:
        # Per-layer metrics from the first sub-run.
        runs = [run_bench(binary, args.workload, seeds[0], vs, 0, traced=True)]
    else:
        runs = [run_bench(binary, args.workload, s, vs, SETUPS, traced=False) for s in seeds]
    correct = all(r["correct"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print("FAILED (seed %d, %s): %s" % (r["seed"], r["mode"], failure))

    if args.trace:
        table = metric_table("per_layer")
        values = per_layer(runs[0], table)
    else:
        table = metric_table("end_to_end")
        values = end_to_end(runs)
        print(describe("unlogged_share", values, "ratio"))
        print(describe("bus_to_logged_p50_ms", values, "ms"))
    for name, unit in table.items():
        print(describe(name, values, unit))
    digest = hashlib.sha256(" ".join(r["fingerprint"] for r in runs).encode()).hexdigest()
    polled = sum(r["polled"] for r in runs)
    unlogged = sum(r["unlogged"] for r in runs)
    print("fingerprint %s  polled %d  unlogged %d  logged %d"
          % (digest[:32], polled, unlogged, sum(r["telegrams"] for r in runs)))

    missing = [name for name in table if name not in values]
    if missing:
        correct = False
        print("FAILED: no value for " + ", ".join(missing))
    result = {
        "correct": correct,
        "attempted": max(1, polled),
        "failed": unlogged,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in table.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
