"""The benchmark's only point of contact with the program.

Every import from ``repro`` and every call into it lives here, so a
change to the program's execution API edits this file and nothing else
in ``perfbench``. The rest of the benchmark sees plain data: flat
``dict[str, float]`` results, counter maps, profile phase totals, and
``(label, lhs, rhs)`` identity triples.

Public entry points the workloads drive: ``WorldSource.world_for``
(set-up), ``Runner(...).run`` and
``repro.experiments.registry.run_experiment`` (the timed run).
"""

from __future__ import annotations

import dataclasses
import pickle
from contextlib import contextmanager
from typing import Iterator

import numpy as np
from repro import ExperimentConfig, Runner, ShardJob, WorldSource
from repro.client.device import Device
from repro.client.sdk import AdClient
from repro.client.timeline import KIND_SLOT, KIND_SLOT_START
from repro.core.overbooking import DispatchPolicy
from repro.exchange.marketplace import Exchange
from repro.experiments import harness
from repro.experiments.harness import World
from repro.experiments.e13_faults import plan_for
from repro.experiments.registry import run_experiment
from repro.prediction.base import SlotPredictor
from repro.radio.statemachine import RadioStateMachine
from repro.runner import partition_users
from repro.server.adserver import AdServer
from repro.sim.batched import (
    DEFAULT_CONTRACT,
    BatchedExchange,
    LogDevice,
    contract_violations,
)
from repro.traces.generator import TraceGenerator
from repro.traces.schema import SECONDS_PER_DAY
from repro.traces.stats import epoch_slot_counts
import repro.runner as runner_module

from perfbench.workloads import Workload

#: Counters the program keeps under a ``realtime.`` twin for the
#: baseline's own components; the benchmark reports their sum.
TWINNED = ("exchange.auctions.held", "exchange.auctions.sold",
           "radio.wakeups")


def make_config(workload: Workload, seed: int) -> ExperimentConfig:
    """The program input for ``workload`` at ``seed`` (nothing else varies)."""
    config = ExperimentConfig(seed=seed, n_users=workload.n_users,
                              n_days=workload.n_days,
                              train_days=workload.train_days)
    if workload.fault_intensity:
        config = config.variant(
            faults=plan_for(workload.fault_intensity, config))
    return config


def build_world(config: ExperimentConfig) -> tuple[WorldSource, World]:
    """Set-up: a cold ``WorldSource`` and the world it built for ``config``."""
    source = WorldSource()
    return source, source.world_for(config)


def window_slots(config: ExperimentConfig, world: World) -> int:
    """Ad slots every user reaches in the test window, once.

    The simulated work of one replay, read from the input: each slot is
    an auction or a cached display. Heavy-tailed users make the count
    vary by up to a fifth from seed to seed.
    """
    start = config.train_days * SECONDS_PER_DAY
    slots = 0
    for timeline in world.timelines.values():
        kinds = timeline.window(start, world.trace.horizon)[1]
        slots += int(np.count_nonzero((kinds == KIND_SLOT)
                                      | (kinds == KIND_SLOT_START)))
    return slots


@dataclasses.dataclass
class Outcome:
    """What one workload run produced, flattened to plain data."""

    #: Contract-addressable result metrics (compared to the reference).
    result: dict[str, float]
    #: Program counters summed over every ``Runner.run`` of the workload.
    counters: dict[str, float]
    #: Per ``Runner.run``: phase totals and the executor layout.
    phases: list[dict[str, object]]
    #: Accounting identities of every headline run: (label, lhs, rhs).
    identities: list[tuple[str, float, float]]
    #: Displays served from the prefetch cache or by rescue, and wasted
    #: downloads, summed over headline runs.
    prefetch_useful: float
    prefetch_wasted: float
    rescued_displays: float
    #: ``(Runner, RunResult)`` of every ``Runner.run``, for :func:`task_bytes`.
    runs: list = dataclasses.field(repr=False, default_factory=list)


@contextmanager
def _capture_runs() -> Iterator[list]:
    """Collect ``(runner, result)`` for every ``Runner.run`` inside."""
    runs: list = []
    original = Runner.run

    def run(self, system: str = "headline"):
        result = original(self, system)
        runs.append((self, result))
        return result

    Runner.run = run
    try:
        yield runs
    finally:
        Runner.run = original


def run(workload: Workload, config: ExperimentConfig, source: WorldSource,
        parallelism: int | None = None) -> Outcome:
    """The timed part: run ``workload`` on a world already in ``source``."""
    workers = workload.parallelism if parallelism is None else parallelism
    with _capture_runs() as runs:
        if workload.kind == "e9":
            table = run_experiment("e9", config, jobs=workers,
                                   backend=workload.backend, source=source)
            result = _e9_metrics(table)
        else:
            result = Runner(config, backend=workload.backend,
                            shards=workload.shards, parallelism=workers,
                            source=source).run("headline").result_metrics()
    return _outcome(result, runs)


def _e9_metrics(table) -> dict[str, float]:
    flat = {
        "e9.realtime.ad_joules_per_user_day":
            float(table.realtime_ad_joules_per_user_day),
        "e9.realtime.billed": float(table.realtime_billed),
    }
    for row in table.rows:
        for field in dataclasses.fields(row):
            if field.name != "system":
                flat[f"e9.{row.system}.{field.name}"] = float(
                    getattr(row, field.name))
    return flat


def _outcome(result: dict[str, float], runs: list) -> Outcome:
    counters: dict[str, float] = {}
    phases: list[dict[str, object]] = []
    identities: list[tuple[str, float, float]] = []
    useful = wasted = rescued = 0.0
    for _runner, run_result in runs:
        for name, value in run_result.metrics.counters.items():
            counters[name] = counters.get(name, 0.0) + float(value)
        profile = run_result.profile.phases
        phases.append({
            "shards_execute_s": profile["shards.execute"].total_s,
            "merge_s": profile["merge"].total_s,
            "shard_s": [profile[f"shard.{i}.execute"].total_s
                        for i in range(run_result.n_shards)],
            "workers": min(run_result.parallelism, run_result.n_shards),
        })
        p, r = run_result.prefetch, run_result.realtime
        if p is None:
            continue
        useful += p.cached_displays + p.rescued_displays
        wasted += p.wasted_downloads
        rescued += p.rescued_displays
        if r is None:
            continue
        identities += [
            ("sla.n_sales == n_on_time + n_violated",
             p.sla.n_sales, p.sla.n_on_time + p.sla.n_violated),
            ("revenue.paid_impressions == sla.n_on_time",
             p.revenue.paid_impressions, p.sla.n_on_time),
            ("fallback_displays == revenue.fallback_impressions",
             p.fallback_displays, p.revenue.fallback_impressions),
            ("prefetch served + unfilled == realtime served + unfilled",
             p.cached_displays + p.rescued_displays + p.fallback_displays
             + p.house_displays + p.revenue.unfilled_slots,
             r.impressions + r.unfilled_slots),
        ]
    for name in TWINNED:
        twin = counters.pop("realtime." + name, 0.0)
        counters[name] = counters.get(name, 0.0) + twin
    return Outcome(result=result, counters=dict(sorted(counters.items())),
                   phases=phases, identities=identities,
                   prefetch_useful=useful, prefetch_wasted=wasted,
                   rescued_displays=rescued, runs=runs)


def cache_counts(source: WorldSource) -> tuple[int, int]:
    """(hits, misses) of the benchmark's own world cache."""
    return source.cache.hits, source.cache.misses


def task_bytes(outcome: Outcome) -> int:
    """Pickled size of the shard work each ``Runner.run`` hands its executor.

    Rebuilt as public :class:`ShardJob` values with the runner's own
    shard layout, summed over the workload's runs. Call it after reading
    :func:`cache_counts`: it looks the world up again.
    """
    total = 0
    for runner, run_result in outcome.runs:
        config = runner.config
        world = runner.source.world_for(config)
        users = list(world.timelines)
        counts = epoch_slot_counts(world.trace, world.refresh_of,
                                   config.epoch_s)
        n_shards = runner.resolve_shards(len(users))
        for index, chunk in enumerate(partition_users(users, n_shards)):
            job = ShardJob(
                config=config, apps=world.apps, mode=run_result.system,
                timelines={uid: world.timelines[uid] for uid in chunk},
                profile_of={uid: world.profile_of[uid] for uid in chunk},
                counts={uid: counts[uid] for uid in chunk},
                horizon=world.trace.horizon, shard_index=index,
                n_shards=n_shards, backend=runner.backend)
            total += len(pickle.dumps(job))
    return total


def reference_violations(reference: dict[str, float],
                         result: dict[str, float]) -> list[str]:
    """Result metrics outside the program's backend-equivalence contract."""
    return contract_violations(reference, result, DEFAULT_CONTRACT)


def _with_subclasses(base: type) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _methods(base: type, attr: str, span: str) -> list[tuple[object, str, str]]:
    """``attr`` on ``base`` and every loaded subclass that overrides it."""
    return [(cls, attr, span) for cls in _with_subclasses(base)
            if attr in vars(cls)]


def trace_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every layer boundary traced.

    Module functions are patched where their caller looks them up:
    ``repro.runner`` and ``repro.experiments.harness`` import them by
    name (the harness binds ``run_realtime`` as ``_run_realtime_engine``).
    Each span name covers both backends: the batched radio logs one
    transfer per ``LogDevice`` call, and ``BatchedExchange`` finds
    eligible campaigns in ``_eligible_rows`` without calling
    ``eligible``.
    """
    targets: list[tuple[object, str, str]] = [
        (WorldSource, "world_for", "runner.world_for"),
        (harness, "build_population", "workloads.build_population"),
        (TraceGenerator, "generate", "traces.generate"),
        (harness, "compile_timeline", "client.compile_timeline"),
        (runner_module, "epoch_slot_counts", "traces.epoch_slot_counts"),
        (harness, "epoch_slot_counts", "traces.epoch_slot_counts"),
        (runner_module, "execute_shard", "experiments.execute_shard"),
        (harness, "_run_realtime_engine", "baselines.run_realtime"),
        (RadioStateMachine, "transfer", "radio.transfer"),
        (LogDevice, "ad_fetch", "radio.transfer"),
        (LogDevice, "app_request", "radio.transfer"),
        (LogDevice, "app_streaming", "radio.transfer"),
        (BatchedExchange, "_eligible_rows", "exchange.eligible"),
        (Device, "finish", "radio.settle"),
        (LogDevice, "finish", "radio.settle"),
        (AdClient, "run_epoch", "client.run_epoch"),
        (AdClient, "flush_overdue", "client.flush_overdue"),
    ]
    targets += _methods(SlotPredictor, "predict", "prediction.predict")
    targets += _methods(SlotPredictor, "observe", "prediction.observe")
    targets += _methods(DispatchPolicy, "plan", "core.plan")
    for attr in ("plan_epoch", "sync", "rescue", "realtime_fill", "finalize"):
        targets += _methods(AdServer, attr, f"server.{attr}")
    for attr in ("sell_now", "eligible", "sell_ahead"):
        targets += _methods(Exchange, attr, f"exchange.{attr}")
    return targets
