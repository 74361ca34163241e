#!/usr/bin/env python3
"""Validates bench_pipeline / bench_windowed output against the perf gates.

    ./build/bench_pipeline 1048576 3 > BENCH_ingest.json
    ./build/bench_windowed 262144 8 3 > BENCH_windowed.json
    python3 bench/check_bench.py [--ingest BENCH_ingest.json]
        [--windowed BENCH_windowed.json] [--baseline bench/baseline.json]

Checks the row schema and required modes, the planner A/B fit and accuracy,
the sampled-ingest accuracy and shedding speedup, the telemetry overhead
ratio, the per-ISA kernel ladder and cell-width rows, every throughput floor
listed in bench/baseline.json, the windowed modes, and every latency ceiling
listed there. Prints one line per passed gate, runs every gate even after one
fails, then prints each failure and exits 1 if there were any. A malformed
JSON line or a row missing a schema key aborts at once.
"""

import argparse
import json
import os
import sys

INGEST_KEYS = {"bench", "target", "mode", "items", "items_per_sec", "isa",
               "compiler", "build"}
WINDOWED_KEYS = {"bench", "target", "mode", "windows", "items", "ns_per_op",
                 "ops_per_sec", "isa", "compiler", "build"}
# A gated row fails when it reads more than 20% below its floor.
KEEP = 0.8
# A latency row fails when it reads more than 25% above its ceiling.
SLACK = 1.25


# Messages of the failed gates, in the order they failed.
failures = []


def fail(message):
    """Records a failed gate; main() reports every failure at the end."""
    if message not in failures:
        failures.append(message)


def abort(message):
    sys.exit(f"check_bench: {message}")


def load_rows(path, required):
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                abort(f"{path}:{lineno}: malformed JSON: {e}")
            missing = required - row.keys()
            if missing:
                abort(f"{path}:{lineno}: missing keys {sorted(missing)}")
            rows.append(row)
    return rows


def check_schema(rows):
    for row in rows:
        if row["items_per_sec"] <= 0:
            fail("nonpositive items_per_sec in BENCH_ingest.json")
        if row["isa"] not in ("scalar", "avx2", "avx512"):
            fail(f"unknown isa tag {row['isa']!r}")
        if row["build"] != "release":
            fail("perf-smoke must run release-build benchmarks")
        # Cell-width ladder rows report speedup against the same-ISA
        # 64-bit-cell rate; every other row against forced scalar.
        if row["mode"] == "kernel_cells":
            if "speedup_vs_64bit" not in row or "cell_bits" not in row:
                fail("kernel_cells row missing cell_bits or speedup_vs_64bit")
        elif "speedup_vs_scalar" not in row:
            fail(f"row missing speedup_vs_scalar: {row}")
    modes = {(r["target"], r["mode"]) for r in rows}
    for mode in ("scalar", "batch", "prehashed", "metrics_overhead"):
        if ("monitor", mode) not in modes:
            fail(f"missing monitor/{mode} row")


def check_planner(rows):
    # The planner handed the hand-picked monitor's exact footprint must
    # produce a plan that fits it, and its empirical F2 error must stay
    # commensurate with the bound it promised (2x slack: the bound is an
    # (eps, delta) guarantee, one workload draw may exceed eps).
    planner_rows = {r["mode"]: r for r in rows if r["target"] == "planner"}
    for mode in ("handpicked", "planned"):
        if mode not in planner_rows:
            return fail(f"missing planner/{mode} row")
        for key in ("budget_bytes", "planned_bytes", "target_epsilon",
                    "measured_epsilon"):
            if key not in planner_rows[mode]:
                return fail(f"planner/{mode} row missing {key}")
    planned = planner_rows["planned"]
    before = len(failures)
    if planned["planned_bytes"] > planned["budget_bytes"]:
        fail(f"planner overshot the equal-memory budget: "
             f"{planned['planned_bytes']} > {planned['budget_bytes']} bytes")
    if planned["measured_epsilon"] > 2.0 * planned["target_epsilon"]:
        fail(f"planned geometry missed its accuracy bound: measured F2 eps "
             f"{planned['measured_epsilon']:.4f} vs promised "
             f"{planned['target_epsilon']:.4f}")
    if len(failures) > before:
        return
    print(f"planner A/B: planned {planned['planned_bytes']} bytes within "
          f"{planned['budget_bytes']}, measured F2 eps "
          f"{planned['measured_epsilon']:.4f} (bound "
          f"{planned['target_epsilon']:.4f})")


def check_sampled(rows):
    # One row per admission rate {1, 1/8, 1/64}. The measured F2 error must
    # stay inside the sample-widened promise target_epsilon = eps_geometry +
    # eps_sample (2.5x slack: both terms are ~1-sigma scales and one
    # workload draw may exceed them), and shedding at the deepest rate must
    # actually buy producer-side throughput.
    sampled_rows = {round(r["sample_rate"], 6): r for r in rows
                    if (r["target"], r["mode"]) == ("monitor", "sampled")}
    for rate in (1.0, 0.125, 0.015625):
        if rate not in sampled_rows:
            return fail(f"missing monitor/sampled row at rate {rate}")
        row = sampled_rows[rate]
        for key in ("target_epsilon", "measured_epsilon",
                    "speedup_vs_scalar"):
            if key not in row:
                return fail(f"sampled row at rate {rate} missing {key}")
    before = len(failures)
    for rate in (1.0, 0.125, 0.015625):
        row = sampled_rows[rate]
        if row["measured_epsilon"] > 2.5 * row["target_epsilon"]:
            fail(f"sampled ingest at rate {rate} missed its widened "
                 f"accuracy bound: measured F2 eps "
                 f"{row['measured_epsilon']:.4f} vs promised "
                 f"{row['target_epsilon']:.4f}")
    deep = sampled_rows[0.015625]
    if deep["speedup_vs_scalar"] < 1.2:
        fail(f"sampled ingest at p=1/64 buys no throughput: "
             f"{deep['speedup_vs_scalar']:.2f}x the exact rate")
    if len(failures) > before:
        return
    print(f"sampled ingest: p=1/64 at {deep['speedup_vs_scalar']:.1f}x "
          f"exact-rate throughput, measured F2 eps "
          f"{deep['measured_epsilon']:.4f} (widened bound "
          f"{deep['target_epsilon']:.4f})")


def check_overhead(rows):
    # speedup_vs_scalar is the ratio of instrumented over plain batched
    # ingest. Per-batch probes must stay in the noise; fail if
    # instrumentation costs >15%.
    ratio = next((r.get("speedup_vs_scalar") for r in rows
                  if (r["target"], r["mode"]) == ("monitor",
                                                  "metrics_overhead")), None)
    if ratio is None:
        return fail("no monitor/metrics_overhead ratio to check")
    if ratio < 0.85:
        return fail(f"telemetry overhead too high: instrumented ingest runs "
                    f"at {ratio:.3f}x the plain rate (floor 0.85)")
    print(f"telemetry overhead ratio {ratio:.3f} (instrumented/plain)")


def check_ladder(rows):
    # The scalar level exists on every host; vector levels appear when the
    # runner supports them.
    isa_rows = {(r["target"], r["mode"], r["isa"]) for r in rows}
    for target, mode in (("countmin", "kernel"), ("countsketch", "kernel"),
                         ("bucket_row", "kernel_raw"),
                         ("sign_row4", "kernel_raw")):
        if (target, mode, "scalar") not in isa_rows:
            fail(f"missing {target}/{mode} row for isa=scalar")
    # The cell-width ladder: all four widths at the scalar level.
    cell_rows = {(r["target"], r["isa"], r.get("cell_bits")) for r in rows
                 if r["mode"] == "kernel_cells"}
    for bits in (64, 32, 16, 8):
        if ("countmin", "scalar", bits) not in cell_rows:
            fail(f"missing countmin/kernel_cells row for isa=scalar "
                 f"cell_bits={bits}")


def check_floors(rows, baseline_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    for floor in baseline["floors"]:
        match = floor["row"]
        row = next((r for r in rows
                    if all(r.get(k) == v for k, v in match.items())), None)
        if row is None:
            fail(f"no row matches floor {floor['name']} ({match})")
            continue
        got = row["items_per_sec"]
        want = floor["items_per_sec"]
        if got < KEEP * want:
            fail(f"{floor['name']}: {got:.0f} items/s is more than "
                 f"{1 - KEEP:.0%} below the committed floor "
                 f"{want:.0f} ({baseline_path})")
            continue
        print(f"{floor['name']}: {got / 1e6:.2f}M items/s "
              f"(floor {want / 1e6:.2f}M)")


def check_windowed(wrows):
    wmodes = {(r["target"], r["mode"]) for r in wrows}
    for required in (("windowed_monitor", "rotate"),
                     ("windowed_monitor", "report_k1"),
                     ("windowed_monitor", "report_decayed"),
                     ("monitor", "report"),
                     ("sharded_monitor", "rotate"),
                     ("sharded_monitor", "collect_window")):
        if required not in wmodes:
            fail(f"missing {'/'.join(required)} row")
    for row in wrows:
        if row["ns_per_op"] < 0:
            fail("negative ns_per_op in BENCH_windowed.json")


def check_ceilings(wrows, baseline_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    for ceiling in baseline["ceilings"]:
        match = ceiling["row"]
        row = next((r for r in wrows
                    if all(r.get(k) == v for k, v in match.items())), None)
        if row is None:
            fail(f"no row matches ceiling {ceiling['name']} ({match})")
            continue
        got = row["ns_per_op"]
        want = ceiling["ns_per_op"]
        if got > SLACK * want:
            fail(f"{ceiling['name']}: {got:.0f} ns/op is more than "
                 f"{SLACK - 1:.0%} above the committed ceiling "
                 f"{want:.0f} ({baseline_path})")
            continue
        print(f"{ceiling['name']}: {got / 1e6:.2f} ms/op "
              f"(ceiling {want / 1e6:.2f} ms)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ingest", default="BENCH_ingest.json")
    parser.add_argument("--windowed", default="BENCH_windowed.json")
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "baseline.json"))
    args = parser.parse_args()

    rows = load_rows(args.ingest, INGEST_KEYS)
    check_schema(rows)
    check_planner(rows)
    check_sampled(rows)
    check_overhead(rows)
    check_ladder(rows)
    check_floors(rows, args.baseline)
    wrows = load_rows(args.windowed, WINDOWED_KEYS)
    check_windowed(wrows)
    check_ceilings(wrows, args.baseline)
    if failures:
        for message in failures:
            print(f"check_bench: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"validated {len(rows) + len(wrows)} benchmark rows")


if __name__ == "__main__":
    main()
