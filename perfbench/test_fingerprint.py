#!/usr/bin/env python3
"""Checks the benchmark's virtual-output fingerprint.

Run from the repository root (builds zc_perfbench like run.py does):

    python3 perfbench/test_fingerprint.py [--workload NAME]

For each workload it runs single sub-runs and asserts that
  (a) two untraced runs of one seed give the same fingerprint,
  (b) the traced run of that seed gives the untraced run's fingerprint,
      so tracing does not perturb what is simulated,
  (c) another seed gives another fingerprint and is still correct.
Exits 0 when every check holds, 1 otherwise.
"""
import argparse
import sys

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(run.WORKLOADS))
    args = ap.parse_args()

    binary = run.build()
    failures = []
    for workload in [args.workload] if args.workload else sorted(run.WORKLOADS):
        vs = run.WORKLOADS[workload]["virtual_s"]

        def go(seed, traced=False):
            return run.run_bench(binary, workload, seed, vs, 0, traced)

        a1, a2, traced, b = go(11), go(11), go(11, traced=True), go(12)
        checks = [
            ("same seed, same fingerprint", a1["fingerprint"] == a2["fingerprint"]),
            ("traced equals untraced", a1["fingerprint"] == traced["fingerprint"]),
            ("other seed, other fingerprint", a1["fingerprint"] != b["fingerprint"]),
            ("every run correct", all(r["correct"] for r in (a1, a2, traced, b))),
        ]
        for name, ok in checks:
            print("%-16s %-32s %s" % (workload, name, "ok" if ok else "FAILED"))
            if not ok:
                failures.append((workload, name))
        for r in (a1, a2, traced, b):
            for failure in r["failures"]:
                print("%-16s   seed %d %s: %s" % (workload, r["seed"], r["mode"], failure))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
