#!/usr/bin/env python3
"""Compare two checkouts on one workload with alternating paired runs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload lcurve \
        --metric op_ms_p50 [--pairs 10] [--first-seed 1000]

Each directory is a checkout holding ``perfbench/`` and ``src/``; both run
this directory's copy of the benchmark, so benchmark code and settings are
identical, and every run lasts the run_seconds BENCHMARK.json fixes.  Pair
k uses seed first_seed + k on both sides and alternates which side runs
first.  For the claimed metric it applies the win rule: the change wins at
least nine tenths of the pairs (ties count for neither), the medians differ
by more than the parent's own spread, the distance between its quartiles,
and no more ops fail than at the parent.  It reports the failed ops of both
sides and flags a regression when the change fails more.  For every
end-to-end metric it reports whether the change's median is worse than the
parent's by more than the bound in BENCHMARK.json, and calls a metric
unresolved where the parent's spread exceeds that bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its metric values plus attempted and failed ops."""
    # run this directory's benchmark from a temporary directory inside the
    # checkout, with the checkout's src/ linked in: both sides then run the
    # same benchmark code against their own library
    with tempfile.TemporaryDirectory(dir=checkout) as tmp:
        bench = os.path.join(tmp, "perfbench")
        shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns(
            "out", "__pycache__"))
        os.symlink(os.path.join(os.path.abspath(checkout), "src"),
                   os.path.join(tmp, "src"))
        proc = subprocess.run(
            [sys.executable, os.path.join(bench, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=tmp, capture_output=True, text=True,
            check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed in {checkout}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True,
                        help="end-to-end metric the change claims to improve")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("the win rule needs at least 10 pairs")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="ascii") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.metric not in metrics:
        sys.exit(f"unknown metric {args.metric!r}; have {sorted(metrics)}")

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload,
                                       args.first_seed + k, seconds))
        print(f"pair {k}: " + "  ".join(
            f"{side} {runs[side][-1][args.metric]:.6g}" for side in order),
            flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, {seconds} s per run")
    failed = {}
    for side, rs in runs.items():
        failed[side] = sum(r["failed"] for r in rs)
        print(f"  {side}: {failed[side]} of {sum(r['attempted'] for r in rs)}"
              " ops failed")
    more_failed = failed["change"] > failed["parent"]
    if more_failed:
        print("  REGRESSION: more ops fail than at the parent")
    for name, m in metrics.items():
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        pq, cq = (statistics.quantiles(par, n=4),
                  statistics.quantiles(chg, n=4))
        worse = (cq[1] - pq[1]) / pq[1] * (1 if m["better"] == "lower" else -1)
        if name != "setup_s" and (pq[2] - pq[0]) / pq[1] > m["bound"]:
            all_better = (max(chg) < min(par) if m["better"] == "lower"
                          else min(chg) > max(par))
            verdict = "better in every run" if all_better else "unresolved"
        else:
            verdict = "REGRESSION" if worse > m["bound"] else "within bound"
        print(f"  {name:14s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
              f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
              f"  worse by {worse:+.1%}: {verdict} (bound {m['bound']:.0%})")

    m = metrics[args.metric]
    sign = 1 if m["better"] == "lower" else -1
    wins = sum(1 for p, c in zip(runs["parent"], runs["change"])
               if sign * (p[args.metric] - c[args.metric]) > 0)
    par = [r[args.metric] for r in runs["parent"]]
    chg = [r[args.metric] for r in runs["change"]]
    pq = statistics.quantiles(par, n=4)
    gap = sign * (statistics.median(par) - statistics.median(chg))
    won = (wins >= 0.9 * args.pairs and gap > pq[2] - pq[0]
           and not more_failed)
    print(f"\n{args.metric}: change wins {wins}/{args.pairs} pairs; medians "
          f"differ by {gap:.6g} against a parent spread of {pq[2] - pq[0]:.6g}"
          f" -> {'GAIN' if won else 'no gain shown'}")
    return 1 if more_failed else 0


if __name__ == "__main__":
    sys.exit(main())
