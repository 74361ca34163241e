#!/usr/bin/env python3
"""Builds and runs the repo benchmark (bench/e2e, described by BENCHMARK.json).

Run from the root of a checkout:

  python3 bench/e2e/run.py --workload zipf_hot --seed 1 --seconds 30 --trace 0
  python3 bench/e2e/run.py --smoke

The first call configures and builds bench/e2e as its own CMake project in
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e); later calls only let
CMake check that the build is current. The benchmark binary prints a header,
one line per metric and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 this script
replaces its empty metrics object with the per-layer metrics that
trace_report.py derives from the spans the binary wrote, and prints the
layer table before it.

--smoke runs every workload at tiny sizes, traced and untraced, and exits
non-zero when a metric BENCHMARK.json names is missing, a correctness check
fails, the input digest is not a function of the seed, or compare.py lets
a synthetic regression through.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170
sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, str(HERE))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "--target", "e2e_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "e2e_bench"


def run_binary(binary, workload, seed, seconds, trace, out_dir, smoke=False):
    """Runs one benchmark invocation; returns (stdout lines, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out_dir)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if trace:
        import trace_report
        trace = trace_report.load(Path(out_dir) / "trace.json")
        result["metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in trace_report.layer_metrics(trace).items()
        }
        lines = lines[:-1] + trace_report.summary_lines(trace)
    else:
        lines = lines[:-1]
    return lines, result


def header_digest(lines):
    for line in lines:
        match = re.search(r"\bdigest=([0-9a-f]+)", line)
        if match:
            return match.group(1)
    return None


def compare_gate_problems(spec):
    """compare.py on synthetic runs: a change twice as bad as a parent whose
    spread exceeds every bound must exit 1, the same values exit 0."""
    import compare
    noisy = [1.0, 0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 0.9, 1.1, 1.0]
    problems = []
    for worse, want in ((2.0, 1), (1.0, 0)):
        runs = []
        for pair, value in enumerate(noisy):
            for side, factor in (("parent", 1.0), ("change", worse)):
                metrics = {
                    m["name"]: {"value": value * factor if m["better"] ==
                                "lower" else value / factor, "unit": m["unit"]}
                    for m in spec["end_to_end"]}
                runs.append({"pair": pair, "side": side, "digest": "0",
                             "workload": spec["workloads"][0]["name"],
                             "result": {"correct": True, "attempted": 1,
                                        "failed": 0, "metrics": metrics}})
        with contextlib.redirect_stdout(io.StringIO()):
            status = compare.analyse(spec, runs, agree=False)
        if status != want:
            problems.append(f"compare.py exits {status}, not {want}, on a "
                            f"change {worse}x as bad as a noisy parent")
    return problems


def smoke(binary, out_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    digests = {}
    started = time.monotonic()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            lines, result = run_binary(binary, workload, 1, 1, trace,
                                       out_dir, smoke=True)
            tag = f"{workload} trace={int(trace)}"
            missing = expected[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - expected[trace]
            if missing:
                problems.append(f"{tag}: missing metrics {sorted(missing)}")
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json "
                                f"{sorted(extra)}")
            if not result["correct"] or result["failed"]:
                failed = [l for l in lines if l.startswith("check FAILED")]
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} checks failed {failed}")
            digests.setdefault(workload, header_digest(lines))
    # Paired runs must have measured the same input: the digest is a
    # function of the seed, and of nothing else.
    workload = spec["workloads"][0]["name"]
    again, _ = run_binary(binary, workload, 1, 1, False, out_dir, smoke=True)
    other, _ = run_binary(binary, workload, 2, 1, False, out_dir, smoke=True)
    if header_digest(again) != digests[workload]:
        problems.append(f"{workload}: seed 1 gave digests "
                        f"{digests[workload]} and {header_digest(again)}")
    if header_digest(other) == digests[workload]:
        problems.append(f"{workload}: seeds 1 and 2 gave the same digest")
    problems += compare_gate_problems(spec)
    for problem in problems:
        print(f"smoke: {problem}")
    print(f"smoke: {'FAILED' if problems else 'ok'} in "
          f"{time.monotonic() - started:.1f} s")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this binary instead of building")
    parser.add_argument("--out", help="directory for trace.json")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = Path(args.binary) if args.binary else build()
    out_dir = Path(args.out) if args.out else build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke(binary, out_dir)
    lines, result = run_binary(binary, args.workload, args.seed, args.seconds,
                               args.trace == 1, out_dir)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
