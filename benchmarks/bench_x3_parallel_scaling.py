"""X3 (scaling): backend speedup and shard-parallel scaling.

Two sections, one committed artifact:

**Backend speedup.** Times a single shard of the headline run on both
execution backends at a demand-rich shape (many campaigns per shard —
the regime the batched backend exists for; see DESIGN.md §10). The
event engine's auction cost grows linearly with the campaign count
while the batched engine's stays flat, so this is where the vectorized
hot paths pay off. Each backend is timed ``BACKEND_REPEATS`` times and
the minimum is kept — single-core containers jitter by 15-20% and the
minimum is the stable estimator. Asserted (the CI gate): batched
single-shard throughput is at least ``SPEEDUP_FLOOR``x the event
engine, and the two backends' shard results are bit-for-bit identical.

**Parallel scaling.** The original X3 curve: the headline comparison on
a 400-user world sharded 8 ways at 1/2/4 workers (batched backend, so
the suite stays fast). Two assertions: metrics are bit-for-bit
identical at every worker count (the runner's core contract), and on a
machine with >= 4 CPUs, 4 workers beat the serial run by >= 2x. On
smaller machines the speedup line is recorded but not asserted —
process-pool overhead with one core can only slow things down.

**Beat overhead (X3c).** Times one batched shard with the live
telemetry plane on (a ``BeatEmitter`` at an aggressive 0.2s interval
feeding a no-op transport, plus the flight-recorder ring) against the
same shard quiet. The live plane's pitch is "observation only, cheap
enough to leave on" (DESIGN.md §12); this section records the actual
price and asserts the shard's results stay bit-identical either way.

Shape knobs (environment-overridable): ``REPRO_BENCH_X3_USERS``
(default 800), ``REPRO_BENCH_X3_CAMPAIGNS`` (default 2400),
``REPRO_BENCH_X3_SHARDS`` (default 16) for the backend section;
``REPRO_BENCH_SCALING_USERS`` (default 400) for the parallel and
beat-overhead sections.
"""

from __future__ import annotations

import os

from pathlib import Path

from conftest import bench_config, run_once

from repro.metrics.summary import format_table
from repro.obs.live import CallbackTransport, WorkerLiveSetup
from repro.runner import Runner, WorldCache, run_shard_task

WORKER_COUNTS = (1, 2, 4)
N_SHARDS = 8

#: CI gate — batched single-shard throughput must stay above this
#: multiple of the event engine at the demand-rich shape. Measured
#: ~7.9x on a 1-CPU container; 3x leaves headroom for machine noise.
SPEEDUP_FLOOR = 3.0
BACKEND_REPEATS = 2


def _backend_speedup(cache: WorldCache):
    """Single-shard wall clock per backend at the demand-rich shape."""
    config = bench_config(
        n_users=int(os.environ.get("REPRO_BENCH_X3_USERS", 800)),
        n_campaigns=int(os.environ.get("REPRO_BENCH_X3_CAMPAIGNS", 2400)))
    n_shards = int(os.environ.get("REPRO_BENCH_X3_SHARDS", 16))
    world = cache.get(config)  # build once, outside the timings
    timings: dict[str, float] = {}
    shard_results = {}
    for backend in ("event", "batched"):
        runner = Runner(config, shards=n_shards, backend=backend,
                        world=world)
        task = runner._tasks("headline", world)[0]
        # run_shard_task is the worker entry point the pool executes; timing
        # it times exactly what production shards cost, and its
        # ShardResult carries the PhaseProfiler's elapsed_s.
        results = [run_shard_task(task) for _ in range(BACKEND_REPEATS)]
        timings[backend] = min(r.elapsed_s for r in results)
        shard_results[backend] = results[0]
    return config, n_shards, timings, shard_results


def _scaling_curve(cache: WorldCache):
    config = bench_config(
        n_users=int(os.environ.get("REPRO_BENCH_SCALING_USERS", 400)))
    world = cache.get(config)
    results = []
    for workers in WORKER_COUNTS:
        result = Runner(config, parallelism=workers, shards=N_SHARDS,
                        backend="batched", world=world).run("headline")
        results.append(result)
    return config, results


def _beat_overhead(cache: WorldCache):
    """One batched shard, live telemetry on vs off (min of repeats)."""
    config = bench_config(
        n_users=int(os.environ.get("REPRO_BENCH_SCALING_USERS", 400)))
    world = cache.get(config)
    runner = Runner(config, shards=N_SHARDS, backend="batched",
                    world=world)
    task = runner._tasks("headline", world)[0]
    setup = WorkerLiveSetup(
        transport=CallbackTransport(lambda beat: None),
        beat_interval_s=0.2,
        ring_size=256,
        postmortem_dir=Path("obs-runs") / "postmortems",  # unused: no crash
        system="headline", backend="batched")
    timings: dict[str, float] = {}
    shard_results = {}
    for label, live in (("quiet", None), ("live", setup)):
        results = [run_shard_task(task, live) for _ in range(BACKEND_REPEATS)]
        timings[label] = min(r.elapsed_s for r in results)
        shard_results[label] = results[0]
    return timings, shard_results


def _both_sections():
    cache = WorldCache()
    return (_backend_speedup(cache), _scaling_curve(cache),
            _beat_overhead(cache))


def test_x3_scaling(benchmark, record_table):
    ((backend_config, n_shards, timings, shard_results),
     (config, results),
     (beat_timings, beat_results)) = run_once(benchmark, _both_sections)

    # -- section 1: backend speedup ------------------------------------
    speedup = timings["event"] / timings["batched"]
    backend_rows = []
    points = []
    for backend in ("event", "batched"):
        ratio = timings["event"] / timings[backend]
        backend_rows.append((backend, f"{timings[backend]:.2f}s",
                             f"{ratio:.2f}x"))
        points.append({"section": "backend_speedup", "backend": backend,
                       "n_users": backend_config.n_users,
                       "n_campaigns": backend_config.n_campaigns,
                       "n_shards": n_shards,
                       "shard_elapsed_s": timings[backend],
                       "speedup": ratio})
    backend_table = format_table(
        ["backend", "shard wall clock", "speedup"],
        backend_rows,
        title=(f"X3a: single-shard backend speedup "
               f"({backend_config.n_users} users, "
               f"{backend_config.n_campaigns} campaigns, "
               f"{n_shards} shards, min of {BACKEND_REPEATS})"))

    # -- section 2: parallel scaling -----------------------------------
    serial = results[0]
    scaling_rows = []
    for result in results:
        ratio = serial.elapsed_s / result.elapsed_s
        scaling_rows.append((f"{result.parallelism}", f"{result.n_shards}",
                             f"{result.elapsed_s:.1f}s", f"{ratio:.2f}x"))
        points.append({"section": "parallel_scaling",
                       "workers": result.parallelism,
                       "shards": result.n_shards,
                       "elapsed_s": result.elapsed_s,
                       "speedup": ratio})
    scaling_table = format_table(
        ["workers", "shards", "wall clock", "speedup"],
        scaling_rows,
        title=(f"X3b: shard-parallel scaling, batched backend "
               f"({config.n_users} users, {os.cpu_count()} CPUs)"))

    # -- section 3: beat overhead --------------------------------------
    overhead = (beat_timings["live"] / beat_timings["quiet"] - 1.0) * 100.0
    beat_rows = []
    for label in ("quiet", "live"):
        beat_rows.append((label, f"{beat_timings[label]:.2f}s",
                          "-" if label == "quiet"
                          else f"{overhead:+.1f}%"))
        points.append({"section": "beat_overhead", "mode": label,
                       "shard_elapsed_s": beat_timings[label],
                       "overhead_pct": 0.0 if label == "quiet"
                       else overhead})
    beat_table = format_table(
        ["shard", "wall clock", "overhead"],
        beat_rows,
        title=(f"X3c: live-beat overhead, one batched shard "
               f"({config.n_users} users, 0.2s beat interval, "
               f"min of {BACKEND_REPEATS})"))

    # Rows carry wall-clock timings, so only deterministic outcomes of
    # the serial run are curated into the ledger record.
    serial_result = results[0]
    record_table("x3",
                 backend_table + "\n\n" + scaling_table
                 + "\n\n" + beat_table,
                 result=points, config=config, volatile_rows=True,
                 metrics={
                     "serial.energy_savings":
                         serial_result.comparison.energy_savings,
                     "serial.revenue_loss":
                         serial_result.comparison.revenue_loss,
                     "serial.sla_violation_rate":
                         serial_result.comparison.sla_violation_rate,
                     "serial.n_shards": float(serial_result.n_shards),
                 })

    # The contract: the backend never changes the numbers...
    event, batched = shard_results["event"], shard_results["batched"]
    assert batched.prefetch == event.prefetch
    assert batched.realtime == event.realtime
    # ...and neither does the worker count.
    for result in results[1:]:
        assert result.prefetch == serial.prefetch
        assert result.realtime == serial.realtime
        assert result.comparison == serial.comparison
    # ...and neither does the live telemetry plane (beats observe only).
    quiet, live = beat_results["quiet"], beat_results["live"]
    assert live.prefetch == quiet.prefetch
    assert live.realtime == quiet.realtime
    assert live.metrics == quiet.metrics

    # The payoff, gated in CI: vectorized shards are >= 3x faster where
    # demand is rich...
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched backend only {speedup:.2f}x the event engine "
        f"(floor {SPEEDUP_FLOOR}x) — vectorized hot path regressed?")
    # ...and shards spread across cores where the hardware allows it.
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        four_workers = results[WORKER_COUNTS.index(4)]
        assert serial.elapsed_s / four_workers.elapsed_s >= 2.0
