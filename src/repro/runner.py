"""Sharded, multi-process run harness behind the public ``Runner`` API.

The paper's evaluation couples clients only through the ad server's
per-epoch plan/observe cycle, which makes the population embarrassingly
parallel across **user shards**: each shard runs the full epoch loop
against a shard-local :class:`~repro.server.adserver.AdServer` view (its
own exchange, campaigns, and dispatch RNG, all derived from the master
seed and the shard's index), and shard results are folded back together
through the mergeable accumulators in
:mod:`repro.metrics.accumulators`.

Determinism contract
--------------------
* The shard layout depends only on ``(config, shards)`` — never on
  ``parallelism``. ``Runner(config, parallelism=4)`` therefore returns
  **bit-for-bit** the metrics of ``Runner(config, parallelism=1)``.
* Each shard's RNG streams are namespaced by shard index and shard
  count (``"exchange-prefetch#shard3/8"``), so a shard's draws do not
  depend on worker scheduling or on which process ran it.
* With a single shard the historical stream names are used, so a
  ``shards=1`` run reproduces the pre-sharding serial results exactly.
* Shard execution is a pure function of the dispatched
  :class:`~repro.experiments.harness.ShardJob` — ``repro-lint`` RPR006
  checks the reachability closure of ``execute_shard`` for module
  state, environment writes, and open handles, so retrying a shard on
  a different worker cannot change the merged result.

Changing the *shard count* is a semantic knob, not merely an execution
knob: each shard sells its own predicted inventory into a shard-local
marketplace, so metrics drift slightly as shards multiply (the same
way the paper's numbers would drift if the operator split traffic
across independent ad servers).

Example
-------
>>> from repro import Runner, ExperimentConfig
>>> result = Runner(ExperimentConfig(n_users=40, n_days=6, train_days=3),
...                 parallelism=2, shards=2).run("headline")
>>> result.comparison.energy_savings > 0        # doctest: +SKIP
True
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - break the runner <-> dist cycle
    from repro.dist.coordinator import DistStats

import numpy as np

from repro.client.timeline import ClientTimeline
from repro.experiments.config import ExperimentConfig
from repro.faults.chaos import CoordinatorChaos
from repro.experiments.harness import (
    BACKENDS,
    PrefetchArtifacts,
    ShardJob,
    World,
    build_world,
    execute_shard,
    shard_rng_tag,
    world_from_trace,
)
from repro.metrics.accumulators import (
    EnergyAccumulator,
    MeanAccumulator,
    RevenueAccumulator,
    SlaAccumulator,
)
from repro.metrics.outcomes import (
    Comparison,
    PrefetchOutcome,
    RealtimeOutcome,
    compare,
)
from repro.obs.flightrec import RingRecorder, capture_shard_crash
from repro.obs.ledger import Ledger, snapshot_digest
from repro.obs.ledger import RunRecord as LedgerRecord
from repro.obs.live import (
    BeatEmitter,
    LiveOptions,
    LivePlane,
    WorkerLiveSetup,
)
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.metrics import MetricsSnapshot
from repro.obs.profile import PhaseProfiler, RunProfile
from repro.obs.resources import ResourceTelemetry, collect_telemetry
from repro.obs.runtime import (
    Obs,
    ObsOptions,
    activate,
    default_obs_options,
    next_run_dir,
)
from repro.obs.trace import (
    NULL_RECORDER,
    MemoryRecorder,
    TraceEvent,
    write_chrome,
    write_jsonl,
)
from repro.radio.profiles import RadioProfile
from repro.sim.batched import (
    DEFAULT_CONTRACT,
    prefetch_metrics,
    realtime_metrics,
)
from repro.traces.stats import epoch_slot_counts
from repro.workloads.appstore import TOP15, AppProfile

SYSTEMS = ("prefetch", "realtime", "headline")

#: Shard execution engines ``Runner(executor=...)`` selects between.
EXECUTORS = ("pool", "dist")

#: Target shard granularity for ``shards=None``: one shard per this many
#: users, so the default layout is a function of the config alone.
USERS_PER_SHARD = 200

#: Upper bound on auto-selected shards (explicit ``shards=`` may exceed it).
MAX_AUTO_SHARDS = 16


def auto_shard_count(n_users: int, max_shards: int | None = None) -> int:
    """Default shard count for a population of ``n_users``.

    Deterministic in the config alone (never in worker count), so runs
    at any parallelism agree on the shard layout. ``max_shards``
    overrides the :data:`MAX_AUTO_SHARDS` clamp — the historical
    silent cap is now a visible knob (``Runner(max_shards=...)``,
    CLI ``--max-shards``), and the Runner emits the
    ``runner.auto_shards_clamped`` counter whenever the clamp actually
    bites.
    """
    cap = MAX_AUTO_SHARDS if max_shards is None else max(1, int(max_shards))
    return max(1, min(cap, n_users // USERS_PER_SHARD))


def partition_users(user_ids: Sequence[str],
                    n_shards: int) -> list[list[str]]:
    """Split ``user_ids`` into ``n_shards`` contiguous, near-even chunks.

    The input order is preserved (the harness iterates users in sorted
    order, so chunk membership is deterministic); chunk sizes differ by
    at most one.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    n = len(user_ids)
    base, extra = divmod(n, n_shards)
    chunks: list[list[str]] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        chunks.append(list(user_ids[start:start + size]))
        start += size
    return chunks


# ----------------------------------------------------------------------
# Execution options: the CLI-installable process default
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExecOptions:
    """Execution-plane knobs shared by every Runner in a process.

    Mirrors the :class:`~repro.obs.runtime.ObsOptions` process-default
    pattern: the CLI installs one of these from ``--executor`` /
    ``--workers`` / ``--max-shards`` / ``--chaos`` and the experiment
    runners pick it up without threading executor arguments through
    every call site. All fields are execution knobs only — under the
    determinism contract they never change a merged bit (``max_shards``
    excepted: like ``shards`` it is a semantic knob, which is exactly
    why its silent historical clamp became visible).
    """

    executor: str = "pool"
    workers: int | None = None
    shards: int | None = None
    max_shards: int | None = None
    chaos: CoordinatorChaos | None = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"expected one of {EXECUTORS}")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.max_shards is not None and self.max_shards < 1:
            raise ValueError("max_shards must be >= 1")


_DEFAULT_EXEC_OPTIONS: ExecOptions | None = None


def set_default_exec_options(options: ExecOptions | None) -> None:
    """Install (or clear, with ``None``) the process-default options."""
    global _DEFAULT_EXEC_OPTIONS
    _DEFAULT_EXEC_OPTIONS = options


def default_exec_options() -> ExecOptions:
    """The installed process default, or the quiet pool default."""
    if _DEFAULT_EXEC_OPTIONS is not None:
        return _DEFAULT_EXEC_OPTIONS
    return ExecOptions()


# ----------------------------------------------------------------------
# World provisioning: cache + explicit source (no module-global state)
# ----------------------------------------------------------------------


def default_spill_dir() -> Path:
    """Default on-disk trace cache: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return Path(os.environ.get("REPRO_CACHE_DIR",
                               "~/.cache/repro")).expanduser()


class WorldCache:
    """Size-bounded LRU cache of generated :class:`World` objects.

    Parameters
    ----------
    max_worlds:
        In-memory bound; the least-recently-used world is evicted once
        the bound is exceeded.
    spill_dir:
        Optional directory for spilling generated **traces** to disk
        (JSONL via :mod:`repro.traces.io`). A later miss — including in
        a different process — reloads the trace and recompiles
        timelines instead of regenerating the population. Note the
        JSONL format rounds session times to milliseconds, so a
        spill-reloaded world is statistically, not bit-wise, identical
        to a freshly generated one.
    """

    def __init__(self, max_worlds: int = 16,
                 spill_dir: str | Path | None = None) -> None:
        if max_worlds < 1:
            raise ValueError("max_worlds must be >= 1")
        self.max_worlds = int(max_worlds)
        self.spill_dir = (Path(spill_dir).expanduser()
                          if spill_dir is not None else None)
        self._worlds: OrderedDict[tuple[object, ...], World] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.spill_loads = 0

    def __len__(self) -> int:
        return len(self._worlds)

    def _key(self, config: ExperimentConfig,
             apps: Sequence[AppProfile]) -> tuple[object, ...]:
        return (config.world_key(), tuple(a.app_id for a in apps))

    def spill_path(self, config: ExperimentConfig,
                   apps: Sequence[AppProfile] = TOP15) -> Path | None:
        """Where this config's trace spills to (None if spill disabled)."""
        if self.spill_dir is None:
            return None
        digest = hashlib.sha256(
            repr(self._key(config, apps)).encode()).hexdigest()[:16]
        return self.spill_dir / f"trace-{digest}.jsonl"

    def get(self, config: ExperimentConfig,
            apps: Sequence[AppProfile] = TOP15) -> World:
        """Return the world for ``config``, building it at most once."""
        key = self._key(config, apps)
        cached = self._worlds.get(key)
        if cached is not None:
            self.hits += 1
            self._worlds.move_to_end(key)
            return cached
        self.misses += 1
        world = self._load_spilled(config, apps)
        if world is None:
            world = build_world(config, apps)
            self._write_spill(config, apps, world)
        self._worlds[key] = world
        while len(self._worlds) > self.max_worlds:
            self._worlds.popitem(last=False)
        return world

    def _load_spilled(self, config: ExperimentConfig,
                      apps: Sequence[AppProfile]) -> World | None:
        path = self.spill_path(config, apps)
        if path is None or not path.exists():
            return None
        from repro.traces.io import read_trace
        trace = read_trace(path)
        self.spill_loads += 1
        return world_from_trace(config, trace, apps)

    def _write_spill(self, config: ExperimentConfig,
                     apps: Sequence[AppProfile], world: World) -> None:
        path = self.spill_path(config, apps)
        if path is None or path.exists():
            return
        from repro.traces.io import write_trace
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        write_trace(world.trace, tmp)
        tmp.replace(path)

    def clear(self) -> None:
        """Drop all in-memory worlds (spilled traces stay on disk)."""
        self._worlds.clear()


class WorldSource:
    """Explicit world provider owned by whoever runs shards.

    Replaces the historical module-global world cache: shard execution
    no longer consults hidden process state — callers hand a
    ``WorldSource`` (or the ``Runner`` builds a private one) and every
    world lookup is visible in the object graph.

    Parameters
    ----------
    cache:
        The backing :class:`WorldCache`. ``None`` builds a private
        cache that spills traces to :func:`default_spill_dir` only when
        ``REPRO_CACHE_DIR`` is set, so plain test runs never touch the
        user's home directory.
    world:
        Pin a pre-built :class:`World`: every lookup returns it,
        bypassing the cache (sweeps sharing one trace across config
        variants).
    apps:
        App catalog used when a world must be built.
    """

    def __init__(self, cache: WorldCache | None = None,
                 world: World | None = None,
                 apps: Sequence[AppProfile] = TOP15) -> None:
        if cache is None:
            spill = (default_spill_dir()
                     if os.environ.get("REPRO_CACHE_DIR") else None)
            cache = WorldCache(spill_dir=spill)
        self.cache = cache
        self.world = world
        self.apps = tuple(apps)

    def world_for(self, config: ExperimentConfig) -> World:
        """The world for ``config`` (the pinned world, if any)."""
        if self.world is not None:
            return self.world
        return self.cache.get(config, self.apps)

    def clear(self) -> None:
        """Drop cached worlds (the pinned world, if any, survives)."""
        self.cache.clear()


# ----------------------------------------------------------------------
# Shard execution (worker-process entry points)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ShardTask:
    """Everything one worker needs to run one shard.

    Shipped to worker processes by pickle, so it carries plain data
    (timeline arrays, profiles, counts) rather than live simulator
    state.
    """

    config: ExperimentConfig
    system: str
    shard_index: int
    n_shards: int
    apps: tuple[AppProfile, ...]
    timelines: dict[str, ClientTimeline]
    profile_of: dict[str, RadioProfile]
    counts: dict[str, np.ndarray]
    horizon: float
    trace: bool = False
    backend: str = "event"

    def to_job(self) -> ShardJob:
        """The :class:`ShardJob` this task executes."""
        return ShardJob(
            config=self.config, mode=self.system, apps=self.apps,
            timelines=self.timelines, profile_of=self.profile_of,
            counts=self.counts, horizon=self.horizon,
            shard_index=self.shard_index, n_shards=self.n_shards,
            backend=self.backend)


@dataclass(slots=True)
class ShardResult:
    """One shard's contribution to the merged run result.

    Besides the simulation outcomes, every shard carries its local
    :class:`~repro.obs.metrics.MetricsSnapshot`, its trace events (empty
    unless tracing was requested), and its own wall-clock execution
    time — all of which the Runner folds deterministically in
    shard-index order.
    """

    shard_index: int
    n_users: int
    prefetch: PrefetchOutcome | None = None
    replication_weight: float = 0.0
    realtime: RealtimeOutcome | None = None
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    events: list[TraceEvent] | None = None
    elapsed_s: float = 0.0


def run_shard_task(task: ShardTask,
                   live: WorkerLiveSetup | None = None) -> ShardResult:
    """Worker entry point: run one shard's epoch loop(s).

    The **shared** entry point of both executors: the process pool maps
    it over tasks directly, and every :mod:`repro.dist` worker calls it
    for each claimed job — so a shard computes bit-for-bit the same
    result, streams the same beats, and writes the same crash
    postmortem whichever executor dispatched it.

    Activates a fresh shard-local :class:`~repro.obs.runtime.Obs`
    bundle around the run, so every component constructed inside binds
    shard-local instruments; tracing uses a per-shard
    :class:`~repro.obs.trace.MemoryRecorder` only when requested.

    When a :class:`~repro.obs.live.WorkerLiveSetup` is handed in beside
    the task, the trace recorder is additionally wrapped in a
    :class:`~repro.obs.flightrec.RingRecorder` flight recorder and a
    :class:`~repro.obs.live.BeatEmitter` publishes out-of-band
    heartbeats over the setup's transport. Both observe only: a live
    shard computes bit-for-bit what a quiet shard computes. If the
    shard raises, the flight recorder's ring is serialized into a
    crash postmortem before the exception propagates to the pool.
    """
    profiler = PhaseProfiler()
    inner = (MemoryRecorder(shard=task.shard_index) if task.trace
             else None)
    beats: BeatEmitter | None = None
    ring: RingRecorder | None = None
    recorder = inner
    if live is not None:
        ring = RingRecorder(inner if inner is not None else NULL_RECORDER,
                            shard=task.shard_index,
                            capacity=live.ring_size)
        recorder = ring
        beats = BeatEmitter(live.transport,
                            shard_index=task.shard_index,
                            n_shards=task.n_shards,
                            interval_s=live.beat_interval_s)
    obs = Obs.create(recorder, beats)
    result = ShardResult(shard_index=task.shard_index,
                         n_users=len(task.timelines))
    if beats is not None:
        beats.beat(0.0, users=result.n_users, force=True)  # hello
    try:
        with activate(obs), profiler.phase("shard.execute"):
            execution = execute_shard(task.to_job())
            if execution.prefetch is not None:
                artifacts: PrefetchArtifacts = execution.prefetch
                result.prefetch = artifacts.outcome
                result.replication_weight = float(
                    sum(1 for s in artifacts.server.plan_stats if s.sold))
            result.realtime = execution.realtime
    except BaseException as exc:
        if live is not None:
            _write_crash_postmortem(task, live, obs, ring, exc)
        if beats is not None:
            beats.beat(0.0, users=result.n_users, failed=True)
        raise
    if beats is not None:
        beats.beat(task.horizon, users=result.n_users, final=True)
    result.metrics = obs.metrics.snapshot()
    result.events = obs.recorder.events() if task.trace else None
    stats = profiler.snapshot().phases.get("shard.execute")
    result.elapsed_s = stats.total_s if stats is not None else 0.0
    return result


def _write_crash_postmortem(task: ShardTask, live: WorkerLiveSetup,
                            obs: Obs, ring: RingRecorder | None,
                            exc: BaseException) -> None:
    """Capture a crashing shard's black box (shared obs helper).

    Runs on the worker's failure path only; a postmortem that cannot
    be written must not mask the original shard exception — the
    delegate returns ``None`` in that case rather than raising.
    """
    capture_shard_crash(
        shard_index=task.shard_index,
        n_shards=task.n_shards,
        system=live.system or task.system,
        backend=live.backend or task.backend,
        postmortem_dir=live.postmortem_dir,
        exc=exc,
        ring=ring,
        counters=obs.metrics.snapshot().counters,
    )


def canonical_shard_results(
        results: Sequence[ShardResult]) -> list[ShardResult]:
    """Canonical merge order: shard-index sorted, duplicates dropped.

    The normalization both merge folds apply, so the merged outcome is
    invariant under any *arrival* permutation of shard results — the
    property the distributed coordinator's bit-identity contract rests
    on (a stolen lease's original execution may deliver a late
    duplicate; shard execution is pure, so any copy of a shard index
    carries identical bits and the first one seen wins).
    """
    by_index: dict[int, ShardResult] = {}
    for result in results:
        by_index.setdefault(result.shard_index, result)
    return [by_index[index] for index in sorted(by_index)]


def _merge_prefetch(results: Sequence[ShardResult],
                    config: ExperimentConfig) -> PrefetchOutcome:
    """Fold shard prefetch outcomes into one population-wide outcome."""
    results = canonical_shard_results(results)
    pairs = [(r.prefetch, r) for r in results if r.prefetch is not None]
    outcomes = [outcome for outcome, _ in pairs]
    energy = reduce(EnergyAccumulator.merge,
                    (EnergyAccumulator.from_report(o.energy)
                     for o in outcomes), EnergyAccumulator())
    sla = reduce(SlaAccumulator.merge,
                 (SlaAccumulator.from_report(o.sla) for o in outcomes),
                 SlaAccumulator())
    revenue = reduce(RevenueAccumulator.merge,
                     (RevenueAccumulator.from_report(o.revenue)
                      for o in outcomes), RevenueAccumulator())
    replication = reduce(
        MeanAccumulator.merge,
        (MeanAccumulator.from_mean(o.mean_replication, r.replication_weight)
         for o, r in pairs), MeanAccumulator())
    return PrefetchOutcome(
        energy=energy.finalize(float(config.test_days)),
        sla=sla.finalize(),
        revenue=revenue.finalize(),
        cached_displays=sum(o.cached_displays for o in outcomes),
        rescued_displays=sum(o.rescued_displays for o in outcomes),
        fallback_displays=sum(o.fallback_displays for o in outcomes),
        house_displays=sum(o.house_displays for o in outcomes),
        wasted_downloads=sum(o.wasted_downloads for o in outcomes),
        mean_replication=replication.finalize(),
        syncs=sum(o.syncs for o in outcomes),
    )


def _merge_realtime(results: Sequence[ShardResult]) -> RealtimeOutcome:
    """Fold shard realtime outcomes into one population-wide outcome."""
    outcomes = [r.realtime for r in canonical_shard_results(results)
                if r.realtime is not None]
    energy = reduce(EnergyAccumulator.merge,
                    (EnergyAccumulator.from_report(o.energy)
                     for o in outcomes), EnergyAccumulator())
    days = outcomes[0].energy.days
    return RealtimeOutcome(
        energy=energy.finalize(days),
        billed_revenue=sum(o.billed_revenue for o in outcomes),
        impressions=sum(o.impressions for o in outcomes),
        unfilled_slots=sum(o.unfilled_slots for o in outcomes),
    )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RunResult:
    """Merged outcome of one :meth:`Runner.run` call.

    The observability fields (``metrics``, ``profile``, ``manifest``,
    ``trace_events``) are carried alongside the simulation outcomes and
    never feed back into them: a traced run's ``comparison`` is
    bit-for-bit identical to an untraced one. ``postmortems`` lists any
    flight-recorder files the live plane wrote during the run (stall
    episodes that later recovered still leave their postmortem behind,
    so the episode is inspectable after the fact).
    """

    system: str
    n_shards: int
    parallelism: int
    elapsed_s: float
    prefetch: PrefetchOutcome | None = None
    realtime: RealtimeOutcome | None = None
    comparison: Comparison | None = None
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    profile: RunProfile = field(default_factory=RunProfile)
    manifest: RunManifest | None = None
    trace_events: tuple[TraceEvent, ...] = ()
    artifacts_dir: Path | None = None
    resources: ResourceTelemetry = field(default_factory=ResourceTelemetry)
    postmortems: tuple[Path, ...] = ()
    #: Distributed-executor accounting (``None`` for pool runs). Kept
    #: out of ``metrics`` on purpose: requeues and duplicate discards
    #: describe the unreliable substrate, not the simulation, and the
    #: merged snapshot must stay bit-identical across executors.
    dist: "DistStats | None" = None

    def result_metrics(self) -> dict[str, float]:
        """The run's flat, contract-addressable result metrics.

        The same flattening the batched-backend equivalence check uses
        (:func:`repro.sim.batched.prefetch_metrics` /
        :func:`~repro.sim.batched.realtime_metrics`), plus the headline
        comparison ratios — this is what lands in a ledger record's
        ``metrics`` map.
        """
        flat: dict[str, float] = {}
        if self.prefetch is not None:
            flat.update(prefetch_metrics(self.prefetch))
        if self.realtime is not None:
            flat.update(realtime_metrics(self.realtime))
        if self.comparison is not None:
            flat.update({
                "headline.energy_savings": self.comparison.energy_savings,
                "headline.revenue_loss": self.comparison.revenue_loss,
                "headline.sla_violation_rate":
                    self.comparison.sla_violation_rate,
                "headline.wakeup_reduction":
                    self.comparison.wakeup_reduction,
            })
        return flat

    @property
    def value(self) -> Comparison | PrefetchOutcome | RealtimeOutcome | None:
        """The system's primary result object.

        The :class:`~repro.metrics.outcomes.Comparison` for
        ``"headline"``, otherwise the single system's outcome.
        """
        if self.system == "headline":
            return self.comparison
        if self.system == "prefetch":
            return self.prefetch
        return self.realtime


class Runner:
    """Sharded run harness: the supported way to execute full runs.

    Parameters
    ----------
    config:
        The experiment parameterisation.
    parallelism:
        Worker processes for shard execution. Purely an execution knob:
        results are bit-for-bit identical at any value.
    shards:
        Shard count, or ``None`` for :func:`auto_shard_count`. This *is*
        a semantic knob — each shard serves a shard-local ad-server
        view — so it is derived from the config, never from
        ``parallelism``.
    backend:
        Shard execution backend: ``"event"`` (the reference discrete
        event engine) or ``"batched"`` (vectorized components verified
        equivalent; see :mod:`repro.sim.batched`). Purely an execution
        knob under the equivalence contract.
    source:
        Explicit :class:`WorldSource` to draw worlds from. ``None``
        builds one from the ``cache``/``world``/``apps`` convenience
        parameters below.
    cache:
        The :class:`WorldCache` to draw worlds from (ignored when
        ``source`` is given).
    world:
        Pre-built :class:`World` to reuse, bypassing the cache (sweeps
        sharing one trace across config variants; ignored when
        ``source`` is given).
    apps:
        App catalog for world construction (defaults to the paper's
        top-15 catalog; ignored when ``source`` is given).
    obs:
        Observability options (tracing, artifact directory). ``None``
        falls back to the process default installed by the CLI's
        ``--trace``/``--metrics-out`` flags (see
        :func:`repro.obs.runtime.set_default_obs_options`); pass
        ``ObsOptions()`` explicitly to force the quiet default.
    executor:
        Shard execution engine: ``"pool"`` (in-process / process-pool
        map, the historical path) or ``"dist"`` (the
        :mod:`repro.dist` coordinator/worker runner with lease-based
        work-stealing and retry). Purely an execution knob: merged
        results are bit-for-bit identical across executors. ``None``
        falls back to the process default installed by the CLI's
        ``--executor`` flag (see :func:`set_default_exec_options`).
    workers:
        Worker-process count for the ``"dist"`` executor (defaults to
        ``parallelism``). Purely an execution knob.
    max_shards:
        Clamp on the *auto* shard count (``shards=None``); ``None``
        keeps the historical :data:`MAX_AUTO_SHARDS`. A semantic knob
        like ``shards``; when the clamp actually bites, the run's
        merged metrics carry a ``runner.auto_shards_clamped`` counter.
    chaos:
        Optional :class:`~repro.faults.CoordinatorChaos` plan for the
        ``"dist"`` executor (seeded worker kills / duplicated /
        delayed results). Chaos runs must still merge bit-identically.
    """

    def __init__(self, config: ExperimentConfig, *,
                 parallelism: int = 1,
                 shards: int | None = None,
                 backend: str = "event",
                 source: WorldSource | None = None,
                 cache: WorldCache | None = None,
                 world: World | None = None,
                 apps: Sequence[AppProfile] = TOP15,
                 obs: ObsOptions | None = None,
                 executor: str | None = None,
                 workers: int | None = None,
                 max_shards: int | None = None,
                 chaos: CoordinatorChaos | None = None) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}")
        exec_defaults = default_exec_options()
        executor = executor if executor is not None else exec_defaults.executor
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}")
        workers = workers if workers is not None else exec_defaults.workers
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        max_shards = (max_shards if max_shards is not None
                      else exec_defaults.max_shards)
        if max_shards is not None and max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        self.config = config
        self.parallelism = int(parallelism)
        self.shards = shards if shards is not None else exec_defaults.shards
        self.backend = backend
        self.executor = executor
        self.workers = workers
        self.max_shards = max_shards
        self.chaos = chaos if chaos is not None else exec_defaults.chaos
        self.source = (source if source is not None
                       else WorldSource(cache=cache, world=world, apps=apps))
        self.obs = obs

    def resolve_shards(self, n_users: int) -> int:
        """The effective shard count for an ``n_users`` population."""
        n = self.shards if self.shards is not None else auto_shard_count(
            n_users, self.max_shards)
        return max(1, min(n, max(1, n_users)))

    def _auto_clamp_bites(self, n_users: int) -> bool:
        """Whether the auto-shard clamp actually reduced the layout."""
        if self.shards is not None:
            return False
        unclamped = max(1, n_users // USERS_PER_SHARD)
        return unclamped > auto_shard_count(n_users, self.max_shards)

    def _tasks(self, system: str, world: World,
               trace: bool = False) -> list[ShardTask]:
        user_ids = list(world.timelines)
        n_shards = self.resolve_shards(len(user_ids))
        counts = epoch_slot_counts(world.trace, world.refresh_of,
                                   self.config.epoch_s)
        tasks = []
        for index, chunk in enumerate(partition_users(user_ids, n_shards)):
            tasks.append(ShardTask(
                config=self.config,
                system=system,
                shard_index=index,
                n_shards=n_shards,
                apps=world.apps,
                timelines={uid: world.timelines[uid] for uid in chunk},
                profile_of={uid: world.profile_of[uid] for uid in chunk},
                counts={uid: counts[uid] for uid in chunk},
                horizon=world.trace.horizon,
                trace=trace,
                backend=self.backend,
            ))
        return tasks

    def run(self, system: str = "headline") -> RunResult:
        """Execute ``system`` over the config's population.

        ``system`` is ``"prefetch"``, ``"realtime"``, or ``"headline"``
        (both, compared on the identical trace). Under the ``"pool"``
        executor shards run serially in-process at ``parallelism=1``,
        otherwise across a
        :class:`~concurrent.futures.ProcessPoolExecutor`; under
        ``"dist"`` a :class:`repro.dist.Coordinator` dispatches them to
        worker processes with lease-based stealing and retry. Every
        path merges shard results in shard-index order with duplicates
        discarded, so the metrics are identical.
        """
        if system not in SYSTEMS:
            raise ValueError(
                f"unknown system {system!r}; expected one of {SYSTEMS}")
        options = self.obs if self.obs is not None else default_obs_options()
        trace = bool(options.trace) if options is not None else False
        live = options.live if options is not None else None
        profiler = PhaseProfiler()
        started = time.perf_counter()
        with profiler.phase("world.build"):
            world = self.source.world_for(self.config)
        tasks = self._tasks(system, world, trace)
        workers = min(self.parallelism, len(tasks))
        if live is not None:
            live = self._with_postmortem_dir(live, options)
        plane: LivePlane | None = None
        dist_stats: "DistStats | None" = None
        dist_postmortems: tuple[Path, ...] = ()
        if self.executor == "pool" and live is not None:
            plane = LivePlane(live, n_shards=len(tasks), system=system,
                              backend=self.backend,
                              parallel=workers > 1)
        with profiler.phase("shards.execute"):
            if self.executor == "dist":
                from repro.dist.coordinator import Coordinator

                coordinator = Coordinator(
                    tasks,
                    workers=(self.workers if self.workers is not None
                             else self.parallelism),
                    live=(live if live is not None
                          else self._with_postmortem_dir(LiveOptions(),
                                                         options)),
                    chaos=self.chaos,
                    system=system,
                    backend=self.backend,
                )
                results = coordinator.run()
                dist_stats = coordinator.stats
                dist_postmortems = tuple(coordinator.postmortems)
            elif plane is not None:
                plane.start()
                setup = plane.worker_setup()
                try:
                    if workers > 1:
                        with ProcessPoolExecutor(max_workers=workers) as pool:
                            results = list(pool.map(
                                run_shard_task, tasks, [setup] * len(tasks)))
                    else:
                        results = [run_shard_task(task, setup)
                                   for task in tasks]
                except BaseException:
                    plane.finish(failed=True)
                    raise
                plane.finish()
            elif workers > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(run_shard_task, tasks))
            else:
                results = [run_shard_task(task) for task in tasks]
        results = canonical_shard_results(results)
        for shard in results:
            profiler.add(f"shard.{shard.shard_index}.execute",
                         shard.elapsed_s)
        prefetch = realtime = comparison = None
        with profiler.phase("merge"):
            if system in ("prefetch", "headline"):
                prefetch = _merge_prefetch(results, self.config)
            if system in ("realtime", "headline"):
                realtime = _merge_realtime(results)
            if system == "headline":
                assert prefetch is not None and realtime is not None
                comparison = compare(prefetch, realtime)
            metrics = reduce(MetricsSnapshot.merge,
                             (r.metrics for r in results), MetricsSnapshot())
            if self._auto_clamp_bites(len(world.timelines)):
                # Deterministic in (config, max_shards) alone — never in
                # executor or parallelism — so folding it into the merged
                # snapshot keeps cross-executor bit-identity intact.
                metrics = metrics.merge(MetricsSnapshot(
                    counters={"runner.auto_shards_clamped": 1.0}))
            events: list[TraceEvent] = []
            if trace:
                for shard in results:
                    events.extend(shard.events or [])
        elapsed_s = time.perf_counter() - started
        manifest = build_manifest(
            self.config, system=system, n_shards=len(tasks),
            parallelism=self.parallelism, trace_enabled=trace,
            elapsed_s=elapsed_s, counter_totals=metrics.counters,
            backend=self.backend,
            equivalence_contract_hash=(DEFAULT_CONTRACT.digest()
                                       if self.backend == "batched"
                                       else None))
        profile = profiler.snapshot()
        resources = collect_telemetry(
            elapsed_s=elapsed_s,
            users_total=metrics.counters.get("throughput.users_total", 0.0),
            events_total=metrics.counters.get("throughput.events_total", 0.0))
        artifacts_dir = self._write_artifacts(
            options, result_system=system, manifest=manifest,
            metrics=metrics, profile=profile, events=events, trace=trace,
            resources=resources)
        result = RunResult(
            system=system,
            n_shards=len(tasks),
            parallelism=self.parallelism,
            elapsed_s=elapsed_s,
            prefetch=prefetch,
            realtime=realtime,
            comparison=comparison,
            metrics=metrics,
            profile=profile,
            manifest=manifest,
            trace_events=tuple(events),
            artifacts_dir=artifacts_dir,
            resources=resources,
            postmortems=(tuple(plane.postmortems)
                         if plane is not None else dist_postmortems),
            dist=dist_stats,
        )
        if options is not None and options.ledger is not None:
            self._append_ledger(options.ledger, result, metrics)
        return result

    @staticmethod
    def _with_postmortem_dir(live: LiveOptions,
                             options: ObsOptions | None) -> LiveOptions:
        """Default the postmortem dir into the run's artifact tree."""
        if live.postmortem_dir is not None:
            return live
        if options is None or options.out_dir is None:
            return live
        import dataclasses

        return dataclasses.replace(
            live, postmortem_dir=Path(options.out_dir) / "postmortems")

    def _append_ledger(self, ledger_path: Path, result: RunResult,
                       metrics: MetricsSnapshot) -> None:
        """Append this run to the ledger at ``ledger_path``.

        The committed record carries only deterministic fields (identity
        + counter totals + result metrics + snapshot digest); the
        resource telemetry rides in the gitignored timings sibling.
        """
        assert result.manifest is not None
        record = LedgerRecord.from_manifest(
            result.manifest,
            metrics=result.result_metrics(),
            metrics_digest=snapshot_digest(metrics))
        Ledger(ledger_path).append(record, telemetry=result.resources)

    def _write_artifacts(self, options: ObsOptions | None, *,
                         result_system: str, manifest: RunManifest,
                         metrics: MetricsSnapshot, profile: RunProfile,
                         events: Sequence[TraceEvent],
                         trace: bool,
                         resources: ResourceTelemetry) -> Path | None:
        """Write one ``run-NNN-<label>`` artifact directory, if requested."""
        if options is None or options.out_dir is None:
            return None
        import json

        run_dir = next_run_dir(options, result_system)
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest.write(run_dir / "manifest.json")
        (run_dir / "metrics.json").write_text(
            json.dumps(metrics.to_jsonable(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        (run_dir / "profile.json").write_text(
            json.dumps(profile.to_jsonable(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        (run_dir / "resources.json").write_text(
            json.dumps(resources.to_jsonable(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        if trace:
            write_jsonl(events, run_dir / "trace.jsonl")
            write_chrome(events, run_dir / "trace.chrome.json")
        return run_dir
