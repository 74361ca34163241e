#!/usr/bin/env python3
"""Per-layer view of a traced benchmark run.

  python3 bench/e2e/trace_report.py [.bench_build/e2e/out/trace.json]

Reads the trace.json that `run.py --trace 1` leaves behind and prints
  - per span name: calls, total time, self time (the span minus the part
    its child spans cover) and the self time's share of the run;
  - the layer ledger: items/s of a Monitor with no estimator (prehash and
    fan-out), with each estimator alone, of the full Monitor and of the
    sharded pipeline at one and at all shards;
  - the per-layer metrics BENCHMARK.json lists, and the tracing overhead.
run.py imports layer_metrics() and summary_lines() from here.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ESTIMATORS = ("f0", "f2", "entropy", "hh")


def load(path):
    return json.loads(Path(path).read_text())


def durations(trace):
    """name -> (list of durations in ns, total items)."""
    out = defaultdict(lambda: ([], 0))
    for span in trace["spans"]:
        durs, items = out[span["name"]]
        durs.append(span["end_ns"] - span["start_ns"])
        out[span["name"]] = (durs, items + span["items"])
    return out


def ns_per_item(spans, name):
    """Summed duration over summed items of every span called `name`."""
    durs, items = spans[name]
    return sum(durs) / items if items else 0.0


def self_times(trace):
    """name -> {calls, total_ns, self_ns}, in first-seen order."""
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    table = {}
    for span, covered in zip(spans, child_ns):
        row = table.setdefault(span["name"],
                               {"calls": 0, "total_ns": 0, "self_ns": 0})
        total = span["end_ns"] - span["start_ns"]
        row["calls"] += 1
        row["total_ns"] += total
        row["self_ns"] += total - covered
    return table


def layer_metrics(trace):
    """The per-layer metrics: name -> (value, unit)."""
    spans = durations(trace)
    counters = trace["counters"]

    def median_ms(name):
        durs, _ = spans[name]
        return statistics.median(durs) * 1e-6 if durs else 0.0

    def rate(name):
        per_item = ns_per_item(spans, name)
        return 1e9 / per_item if per_item else 0.0

    m = {}
    prehash = ns_per_item(spans, "layer.prehash")
    full = ns_per_item(spans, "layer.monitor")
    m["prehash.ns_per_item"] = (prehash, "ns")
    m["monitor.ns_per_item"] = (full, "ns")
    parts = prehash
    for est in ESTIMATORS:
        own = ns_per_item(spans, f"layer.{est}") - prehash
        parts += own
        m[f"{est}.ns_per_item"] = (own, "ns")
        m[f"{est}.share"] = (own / full if full else 0.0, "ratio")
        m[f"{est}.space_mb"] = (counters.get(f"{est}.space_mb", 0.0), "MB")
    m["monitor.residual_ns_per_item"] = (full - parts, "ns")

    m["countsketch.update_and_estimate_ns"] = (
        ns_per_item(spans, "countsketch.update_and_estimate"), "ns")
    m["countsketch.batched_ns_per_item"] = (
        ns_per_item(spans, "countsketch.batched"), "ns")
    m["countsketch.estimate_f2_ns"] = (
        ns_per_item(spans, "countsketch.estimate_f2"), "ns")

    m["monitor.report_ms"] = (median_ms("monitor.report"), "ms")
    m["f2.report_ms"] = (median_ms("f2.report"), "ms")
    m["monitor.health_ms"] = (median_ms("monitor.health"), "ms")
    m["monitor.merge_ms"] = (median_ms("monitor.merge"), "ms")
    m["monitor.merge_scaled_ms"] = (median_ms("monitor.merge_scaled"), "ms")

    shards = float(trace["meta"]["shards"])
    one_shard = rate("pipeline.one_shard")
    m["sharded.stall_wait_ms"] = (counters.get("sharded.stall_wait_ms", 0.0),
                                  "ms")
    m["sharded.producer_stalls"] = (
        counters.get("sharded.producer_stalls", 0.0), "count")
    m["sharded.drain_ms"] = (median_ms("sharded.drain"), "ms")
    m["sharded.ring_hwm"] = (counters.get("sharded.ring_hwm", 0.0), "batches")
    m["sharded.shard_skew"] = (counters.get("sharded.shard_skew", 0.0),
                               "ratio")
    m["sharded.recycle_ratio"] = (counters.get("sharded.recycle_ratio", 0.0),
                                  "ratio")
    m["sharded.scaling_efficiency"] = (
        rate("pipeline.plain") / (shards * one_shard) if one_shard else 0.0,
        "ratio")

    m["sharded.rotate_us"] = (median_ms("sharded.rotate") * 1e3, "us")
    m["sharded.collect_wait_ms"] = (median_ms("sharded.collect_wait"), "ms")
    m["sharded.collect_window_ms"] = (median_ms("sharded.collect_window"),
                                      "ms")
    m["windowed.adopt_us"] = (median_ms("windowed.adopt") * 1e3, "us")
    m["windowed.report_k4_ms"] = (median_ms("windowed.report_k4"), "ms")
    m["windowed.report_decayed_ms"] = (median_ms("windowed.report_decayed"),
                                       "ms")
    m["gen.late_batch_frac"] = (counters.get("gen.late_batch_frac", 0.0),
                                "ratio")
    m["gen.batch_latency_ms_p99"] = (
        counters.get("gen.batch_latency_ms_p99", 0.0), "ms")

    m["serde.bytes"] = (counters.get("serde.bytes", 0.0), "bytes")
    m["serde.serialize_ms"] = (median_ms("serde.serialize"), "ms")
    m["serde.deserialize_ms"] = (median_ms("serde.deserialize"), "ms")
    m["serde.checkpoint_ms"] = (median_ms("serde.checkpoint"), "ms")

    for name in ("f2_rel_err", "entropy_rel_err", "hh_recall",
                 "window_f2_rel_err", "window_hh_recall"):
        m[f"accuracy.{name}"] = (counters.get(f"accuracy.{name}", 0.0),
                                 "ratio")
    plain = rate("pipeline.plain")
    m["trace.overhead"] = (rate("pipeline.traced") / plain if plain else 0.0,
                           "ratio")
    return m


def summary_lines(trace):
    """Human-readable span table, layer ledger and metrics."""
    lines = []
    meta = trace["meta"]
    lines.append("# trace " + " ".join(f"{k}={v}" for k, v in meta.items()))
    table = self_times(trace)
    run_ns = sum(span["end_ns"] - span["start_ns"]
                 for span in trace["spans"] if span["parent"] < 0) or 1
    lines.append(f"# {'span':34} {'calls':>7} {'total_ms':>11} "
                 f"{'self_ms':>11} {'self_share':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"# {name:34} {row['calls']:7d} "
                     f"{row['total_ns'] * 1e-6:11.2f} "
                     f"{row['self_ns'] * 1e-6:11.2f} "
                     f"{row['self_ns'] / run_ns:10.3f}")

    metrics = layer_metrics(trace)
    spans = durations(trace)

    lines.append(f"# {'layer':40} {'ns/item':>9} {'items/s':>12} "
                 f"{'share':>7}")
    ledger = [("prehash + empty fan-out", "layer.prehash", None)]
    ledger += [(f"{est} only", f"layer.{est}", f"{est}.share")
               for est in ESTIMATORS]
    ledger += [("full Monitor", "layer.monitor", None),
               ("ShardedMonitor, 1 shard", "pipeline.one_shard", None),
               (f"ShardedMonitor, {meta.get('shards')} shards",
                "pipeline.plain", None)]
    for label, span, share in ledger:
        per_item = ns_per_item(spans, span)
        share_text = f"{metrics[share][0]:7.3f}" if share else f"{'':7}"
        lines.append(f"# {label:40} {per_item:9.1f} "
                     f"{1e9 / per_item if per_item else 0:12.4g} {share_text}")
    for name, (value, unit) in metrics.items():
        lines.append(f"layer {name} {value:.6g} {unit}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace", nargs="?",
                        default=".bench_build/e2e/out/trace.json")
    args = parser.parse_args()
    print("\n".join(summary_lines(load(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
