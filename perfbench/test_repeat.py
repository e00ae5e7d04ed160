#!/usr/bin/env python3
"""Same-seed repeatability test of the benchmark's counts.

Runs each workload twice under --trace 1 with one seed and checks that
both runs are correct with zero failed ops, and that every count in
COUNTS is exactly equal between them: these are the numbers a change
may cite as counts (perfbench/README.md, "Exact-repeat counts").
Run from the repository root:

    python3 perfbench/test_repeat.py [--seed N] [--seconds S]

Exits 1 on any mismatch or failed op.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["l2-sync", "l2-storm"]

COUNTS = [
    "runtime.calls_per_event",
    "checker.checks_per_event",
    "checker.batched_share",
    "kernel.execs_per_event",
    "flow_table.entries",
    "l2_switch.flow_mods_per_event",
    "l2_switch.flood_frac",
    "epoch.delta_share",
    "epoch.republished_per_txn",
    "market.rollback_share",
    "gc.minor_words_per_op",
]


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    ok = True
    for w in WORKLOADS:
        a, b = run(w, args.seed, args.seconds), run(w, args.seed, args.seconds)
        for r in (a, b):
            if not r["correct"] or r["failed"] != 0:
                print(f"FAIL {w}: correct={r['correct']} failed={r['failed']}")
                ok = False
        for name in COUNTS:
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = x == y
            ok = ok and same
            print(f"{'ok  ' if same else 'FAIL'} {w:9s} {name:32s} {x!r} {y!r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
