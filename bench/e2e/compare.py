#!/usr/bin/env python3
"""Paired parent-vs-change comparison on the repo benchmark.

  python3 bench/e2e/compare.py --parent ../parent --change . [--pairs 10]
  python3 bench/e2e/compare.py --agree --parent . --change . --pairs 5

Runs `python3 bench/e2e/run.py` in both checkouts for every workload. Pair
i uses seed --seed + i on both sides, alternating which side runs first,
and both sides must report the same input digest.

Bounds and directions come from the BENCHMARK.json at the root of this
script's checkout. For each end-to-end metric it prints one row per
workload with each side's quartiles and median, then a verdict:
  REGRESSION  the change's median is worse than the parent's by more than
              the bound, whatever the spread;
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  the median is within the bound, but the parent's
              interquartile range, as a share of its median, exceeds the
              bound and the two sides' runs overlap;
  unchanged   otherwise.
Any rise in the error rate (failed / attempted checks) rejects the change.

--agree compares two sets of runs of one commit instead: every metric's
medians must stay within its bound of each other, and each set's spread
within the bound.

Exit status: 0 when nothing regressed or disagreed, 1 otherwise.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = {False: 10, True: 5}


def run_once(checkout, workload, seed, seconds):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py in {checkout} exited {proc.returncode}")
    digest = next((m.group(1) for m in
                   (re.search(r"\bdigest=([0-9a-f]+)", l) for l in lines)
                   if m), None)
    return digest, json.loads(lines[-1]), time.monotonic() - started


def collect(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    sides = [("parent", args.parent), ("change", args.change)]
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = sides if pair % 2 == 0 else sides[::-1]
        for workload in workloads:
            for side, checkout in order:
                digest, result, wall_s = run_once(checkout, workload, seed,
                                                  spec["run_seconds"])
                runs.append({"pair": pair, "side": side,
                             "workload": workload, "digest": digest,
                             "result": result})
                print(f"pair {pair} {workload} {side}: "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"in {wall_s:.0f} s", file=sys.stderr)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def better(x, y, direction):
    return x > y if direction == "higher" else x < y


def verdict(metric, parent, change, agree):
    """parent/change: values ordered by pair. Returns (verdict, row)."""
    bound, direction = metric["bound"], metric["better"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pspread = (pq3 - pq1) / pmed if pmed else math.inf
    cspread = (cq3 - cq1) / cmed if cmed else math.inf
    shift = (cmed - pmed) / pmed if pmed else math.inf
    worse_by = shift if direction == "lower" else -shift
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    row = (f"{pq1:11.5g} {pmed:11.5g} {pq3:11.5g} | {cq1:11.5g} "
           f"{cmed:11.5g} {cq3:11.5g} | {shift:+7.1%} {wins:3d}/"
           f"{len(parent):<3d} {pspread:6.1%} {cspread:6.1%}")
    if agree:
        if abs(shift) > bound:
            return "DISAGREE", row
        spread_ok = pspread <= bound and cspread <= bound
        return ("agree" if spread_ok else "SPREAD"), row
    if worse_by > bound:
        return "REGRESSION", row
    if (wins >= math.ceil(0.9 * len(parent)) and better(cmed, pmed, direction)
            and abs(cmed - pmed) > pq3 - pq1):
        return "gain", row
    separated = (all(better(c, p, direction) for p in parent for c in change)
                 or all(better(p, c, direction)
                        for p in parent for c in change))
    if pspread > bound and not separated:
        return "unresolved", row
    return "unchanged", row


def analyse(spec, runs, agree):
    workloads = [w["name"] for w in spec["workloads"]
                 if any(r["workload"] == w["name"] for r in runs)]
    by_key = {(r["workload"], r["side"], r["pair"]): r for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    failures = []
    for workload in workloads:
        for pair in pairs:
            got = [by_key.get((workload, side, pair))
                   for side in ("parent", "change")]
            if None in got:
                failures.append(f"{workload} pair {pair}: a side is missing")
            elif got[0]["digest"] != got[1]["digest"]:
                failures.append(f"{workload} pair {pair}: input digests "
                                f"differ ({got[0]['digest']} vs "
                                f"{got[1]['digest']})")
    complete = [p for p in pairs
                if all((w, s, p) in by_key for w in workloads
                       for s in ("parent", "change"))]
    if len(complete) < MIN_PAIRS[agree]:
        failures.append(f"{len(complete)} complete pairs; at least "
                        f"{MIN_PAIRS[agree]} are required")

    print(f"{'':17} {'parent q1':>11} {'median':>11} {'q3':>11} | "
          f"{'change q1':>11} {'median':>11} {'q3':>11} | {'shift':>7} "
          f"{'wins':>7} {'p.sprd':>6} {'c.sprd':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%})")
        for workload in workloads:
            values = {side: [by_key[(workload, side, p)]["result"]["metrics"]
                             [name]["value"] for p in complete]
                      for side in ("parent", "change")}
            if not complete:
                continue
            result, row = verdict(metric, values["parent"], values["change"],
                                  agree)
            print(f"  {workload:15} {row}  {result}")
            if result in ("REGRESSION", "DISAGREE", "SPREAD"):
                failures.append(f"{workload} {name}: {result}")

    print("error_rate (failed/attempted checks)")
    for workload in workloads:
        rate = {}
        for side in ("parent", "change"):
            results = [by_key[(workload, side, p)]["result"]
                       for p in complete]
            attempted = sum(r["attempted"] for r in results) or 1
            rate[side] = sum(r["failed"] for r in results) / attempted
        print(f"  {workload:15} parent {rate['parent']:.4f} "
              f"change {rate['change']:.4f}")
        if rate["change"] > rate["parent"] or (agree and rate["parent"] > 0):
            failures.append(f"{workload} error_rate: {rate['parent']:.4f} "
                            f"-> {rate['change']:.4f}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--agree", action="store_true",
                        help="both checkouts are one commit: check agreement")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS[args.agree]:
        parser.error(f"at least {MIN_PAIRS[args.agree]} pairs required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return analyse(spec, collect(args, spec), args.agree)


if __name__ == "__main__":
    sys.exit(main())
