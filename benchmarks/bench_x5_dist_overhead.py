"""X5 (dist): the coordinator against the in-process loop.

Times the headline comparison at the scaling shape on the runner's two
execution paths, sharing one prebuilt world: the in-process loop
(``--jobs 1``, the bit-identity reference) and the ``repro.dist``
coordinator at ``WORKERS`` worker processes (``--jobs WORKERS``, the
only parallel executor). The coordinator pays for spawning its worker
processes, a pipe hop per message, lease bookkeeping, and worker
heartbeats on top of the parallel speedup — this benchmark records
the net (min of ``REPEATS`` runs; small containers jitter and the
minimum is the stable estimator).

Asserted (the CI gate): both merged results are bit-for-bit identical
(the repro.dist contract, DESIGN.md §13), and the quiet coordinator
run needed no retries — every worker survived, no lease expired, no
duplicate was discarded. The wall-clock rows are volatile,
so only the deterministic headline outcomes and dist accounting are
curated into the committed ledger record.

Shape knobs (environment-overridable): ``REPRO_BENCH_X5_USERS``
(default 400), ``REPRO_BENCH_X5_SHARDS`` (default 8),
``REPRO_BENCH_X5_WORKERS`` (default 2).
"""

from __future__ import annotations

import os

from conftest import bench_config, run_once

from repro.metrics.summary import format_table
from repro.runner import Runner, WorldCache

REPEATS = 2


def _shape() -> tuple[int, int]:
    return (int(os.environ.get("REPRO_BENCH_X5_SHARDS", 8)),
            int(os.environ.get("REPRO_BENCH_X5_WORKERS", 2)))


def _executor_runs():
    config = bench_config(
        n_users=int(os.environ.get("REPRO_BENCH_X5_USERS", 400)))
    n_shards, workers = _shape()
    world = WorldCache().get(config)  # build once, outside the timings
    runs = {}
    timings: dict[str, float] = {}
    for label, parallelism in (("serial", 1),
                               (f"dist/{workers}w", workers)):
        results = [Runner(config, shards=n_shards, backend="batched",
                          parallelism=parallelism,
                          world=world).run("headline")
                   for _ in range(REPEATS)]
        timings[label] = min(r.elapsed_s for r in results)
        runs[label] = results[0]
    return config, n_shards, workers, timings, runs


def test_x5_dist_overhead(benchmark, record_table):
    config, n_shards, workers, timings, runs = run_once(
        benchmark, _executor_runs)

    serial_label = "serial"
    dist_label = f"dist/{workers}w"
    serial = runs[serial_label]
    dist = runs[dist_label]

    rows = []
    points = []
    for label in (serial_label, dist_label):
        change = (timings[label] / timings[serial_label] - 1.0) * 100.0
        rows.append((label, f"{timings[label]:.2f}s",
                     "-" if label == serial_label else f"{change:+.1f}%"))
        points.append({"executor": label, "elapsed_s": timings[label],
                       "change_vs_serial_pct": change,
                       "n_shards": n_shards, "workers": workers})
    table = format_table(
        ["executor", "wall clock", "vs serial"],
        rows,
        title=(f"X5: coordinator vs in-process loop, headline "
               f"({config.n_users} users, {n_shards} shards, "
               f"{workers} workers, min of {REPEATS})"))

    stats = dist.dist
    assert stats is not None
    record_table("x5", table, result=points, config=config,
                 volatile_rows=True,
                 metrics={
                     "dist.energy_savings":
                         dist.comparison.energy_savings,
                     "dist.revenue_loss": dist.comparison.revenue_loss,
                     "dist.sla_violation_rate":
                         dist.comparison.sla_violation_rate,
                     "dist.workers_spawned": float(stats.workers_spawned),
                     "dist.requeues": float(stats.requeues),
                     "dist.duplicates_discarded":
                         float(stats.duplicates_discarded),
                     "dist.attempts": float(stats.attempts),
                 })

    # The contract: the execution path never changes the numbers.
    assert serial.dist is None
    assert dist.prefetch == serial.prefetch
    assert dist.realtime == serial.realtime
    assert dist.comparison == serial.comparison
    assert dist.metrics == serial.metrics
    # A quiet substrate needs no recovery machinery: first attempt of
    # every shard lands, nothing is stolen, nothing is discarded.
    assert stats.workers_spawned == workers and stats.workers_lost == 0
    assert stats.requeues == 0 and stats.duplicates_discarded == 0
    assert stats.attempts == n_shards
