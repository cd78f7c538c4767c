"""Metric definitions and their computation from repetition reports.

A repetition report is what ``perfbench.rep.iteration`` returns for one
set-up and run. The end-to-end metrics come from untraced repetitions
only; the per-layer metrics combine the traced repetitions' span totals
with the untraced repetitions' profile phases and program counters.

Every definition is ``(name, unit, better)``; ``BENCHMARK.json`` lists
the same names, units and directions (a self-test keeps them in step).
"""

from __future__ import annotations

import statistics
from typing import Callable

#: Run times are per simulated ad slot (``window_slots × replays``): the
#: work in a seed's world varies by up to a fifth between seeds, the
#: host time per unit of it much less.
END_TO_END = [
    ("wall_us_per_slot", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_us_per_slot", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

#: Span-derived metrics: (metric name, span name, field of layer_totals).
SPAN_METRICS = [
    ("runner.world_for_s", "runner.world_for", "total_s"),
    ("workloads.build_population_s", "workloads.build_population", "total_s"),
    ("traces.generate_s", "traces.generate", "total_s"),
    ("client.compile_timeline_s", "client.compile_timeline", "total_s"),
    ("client.compile_timeline.calls", "client.compile_timeline", "calls"),
    ("traces.epoch_slot_counts_s", "traces.epoch_slot_counts", "total_s"),
    ("traces.epoch_slot_counts.calls", "traces.epoch_slot_counts", "calls"),
    ("experiments.execute_shard.calls", "experiments.execute_shard", "calls"),
    ("experiments.execute_shard_s", "experiments.execute_shard", "total_s"),
    # execute_shard's own code: the epoch loop plus component set-up.
    ("experiments.epoch_loop_self_s", "experiments.execute_shard", "self_s"),
    ("prediction.predict.calls", "prediction.predict", "calls"),
    ("prediction.predict_s", "prediction.predict", "total_s"),
    ("prediction.observe_s", "prediction.observe", "total_s"),
    ("core.plan.calls", "core.plan", "calls"),
    ("core.plan_self_s", "core.plan", "self_s"),
    ("server.plan_epoch_self_s", "server.plan_epoch", "self_s"),
    ("server.sync.calls", "server.sync", "calls"),
    ("server.sync_self_s", "server.sync", "self_s"),
    ("server.realtime_fill.calls", "server.realtime_fill", "calls"),
    ("server.finalize_s", "server.finalize", "total_s"),
    ("server.rescue.calls", "server.rescue", "calls"),
    ("server.rescue_self_s", "server.rescue", "self_s"),
    ("exchange.sell_now.calls", "exchange.sell_now", "calls"),
    ("exchange.sell_now_self_s", "exchange.sell_now", "self_s"),
    ("exchange.eligible_self_s", "exchange.eligible", "self_s"),
    ("exchange.sell_ahead.calls", "exchange.sell_ahead", "calls"),
    ("exchange.sell_ahead_self_s", "exchange.sell_ahead", "self_s"),
    ("radio.transfer.calls", "radio.transfer", "calls"),
    ("radio.transfer_self_s", "radio.transfer", "self_s"),
    ("radio.settle_s", "radio.settle", "total_s"),
    ("client.run_epoch.calls", "client.run_epoch", "calls"),
    ("client.run_epoch_self_s", "client.run_epoch", "self_s"),
    ("client.flush_overdue_self_s", "client.flush_overdue", "self_s"),
    ("baselines.run_realtime.calls", "baselines.run_realtime", "calls"),
    ("baselines.run_realtime_self_s", "baselines.run_realtime", "self_s"),
]

#: Program counters reported as they are: (metric name, counter name).
COUNTER_METRICS = [
    ("core.plan.assignments", "server.plan.assignments"),
    ("exchange.auctions.held", "exchange.auctions.held"),
    ("radio.wakeups", "radio.wakeups"),
    ("client.sync_failures", "sdk.sync_failures"),
    ("client.retries", "sdk.retries"),
    ("faults.injected", "faults.injected"),
    ("throughput.events_total", "throughput.events_total"),
    ("server.rescues", "server.rescues"),
]

#: Metrics derived from several sources: (name, unit, better).
DERIVED = [
    ("runner.world_cache_hits", "count", "higher"),
    ("runner.world_cache_misses", "count", "lower"),
    ("runner.shards_execute_s", "s", "lower"),
    ("runner.merge_s", "s", "lower"),
    ("runner.dispatch_overhead_s", "s", "lower"),
    ("runner.shard_imbalance", "ratio", "lower"),
    ("runner.task_bytes", "bytes", "lower"),
    ("server.rescue.yield", "ratio", "higher"),
    ("exchange.fill_ratio", "ratio", "higher"),
    ("client.prefetch_yield", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("error_rate", "ratio", "lower"),
]


def _span_unit(name: str) -> str:
    return "count" if name.endswith(".calls") else "s"


PER_LAYER = (
    [(name, _span_unit(name), "lower") for name, _, _ in SPAN_METRICS]
    + [(name, "count", "lower") for name, _ in COUNTER_METRICS]
    + DERIVED
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _median(reports: list[dict], value: Callable[[dict], float]) -> float:
    return statistics.median(value(r) for r in reports)


def end_to_end(untraced: list[dict], peak_rss_mb: float) -> dict[str, float]:
    """Medians over the untraced repetitions, and their process's peak RSS."""
    return {
        "wall_us_per_slot": _median(
            untraced, lambda r: r["wall_s"] / r["slots"] * 1e6),
        "setup_s": _median(untraced, lambda r: r["setup_s"]),
        "cpu_us_per_slot": _median(
            untraced, lambda r: r["cpu_s"] / r["slots"] * 1e6),
        "peak_rss_mb": peak_rss_mb,
    }


def _dispatch_overhead_s(report: dict) -> float:
    """``shards.execute`` minus the per-shard work spread over the workers."""
    return sum(p["shards_execute_s"] - sum(p["shard_s"]) / p["workers"]
               for p in report["phases"])


def _imbalance(report: dict) -> float:
    """Slowest shard over the mean shard, worst over the workload's runs."""
    return max(max(p["shard_s"]) / statistics.mean(p["shard_s"])
               for p in report["phases"])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: list[dict], traced: list[dict],
              error_rate: float) -> dict[str, float]:
    """The layer table: span totals, profile phases, counters, ratios."""
    first = untraced[0]
    counters = first["counters"]
    out: dict[str, float] = {}
    for name, span, field in SPAN_METRICS:
        out[name] = _median(traced, lambda r: r["layers"].get(
            span, {}).get(field, 0))
    for name, counter in COUNTER_METRICS:
        out[name] = counters.get(counter, 0.0)
    rescue_calls = out["server.rescue.calls"]
    out.update({
        "runner.world_cache_hits": first["world_cache"]["hits"],
        "runner.world_cache_misses": first["world_cache"]["misses"],
        "runner.shards_execute_s": _median(untraced, lambda r: sum(
            p["shards_execute_s"] for p in r["phases"])),
        "runner.merge_s": _median(untraced, lambda r: sum(
            p["merge_s"] for p in r["phases"])),
        "runner.dispatch_overhead_s": _median(untraced, _dispatch_overhead_s),
        "runner.shard_imbalance": _median(untraced, _imbalance),
        "runner.task_bytes": traced[0]["task_bytes"],
        "server.rescue.yield": _ratio(first["rescued_displays"],
                                      rescue_calls),
        "exchange.fill_ratio": _ratio(
            counters.get("exchange.auctions.sold", 0.0),
            counters.get("exchange.auctions.held", 0.0)),
        "client.prefetch_yield": _ratio(
            first["prefetch_useful"],
            first["prefetch_useful"] + first["prefetch_wasted"]),
        "trace.overhead_s": (_median(traced, lambda r: r["wall_s"])
                             - _median(untraced, lambda r: r["wall_s"])),
        "trace.coverage": _median(
            traced, lambda r: r["top_level_s"] / r["wall_s"]),
        "error_rate": error_rate,
    })
    return {name: out[name] for name, _, _ in PER_LAYER}
