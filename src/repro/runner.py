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

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - break the runner <-> dist cycle
    from repro.dist.coordinator import DistStats

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
from repro.obs.ledger import Ledger, RunRecord, snapshot_digest
from repro.obs.live import (
    BeatEmitter,
    LiveOptions,
    LivePlane,
    WorkerLiveSetup,
)
from repro.obs.manifest import config_jsonable
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
from repro.obs.summarize import (
    CHROME_FILENAME,
    TRACE_FILENAME,
    RunFile,
    write_run,
)
from repro.obs.trace import (
    NULL_RECORDER,
    MemoryRecorder,
    TraceEvent,
    write_chrome,
    write_jsonl,
)
from repro.sim.batched import prefetch_metrics, realtime_metrics
from repro.traces.stats import epoch_slot_counts
from repro.workloads.appstore import TOP15, AppProfile

SYSTEMS = ("prefetch", "realtime", "headline")

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
    """Execution knobs: their one set of defaults and checks.

    Every knob reaches a :class:`Runner` through this object. The CLI
    installs one from ``--jobs`` / ``--backend`` / ``--shards`` /
    ``--max-shards`` / ``--chaos`` as the process default (mirroring
    :class:`~repro.obs.runtime.ObsOptions`), and every Runner fills the
    knobs it was not handed from that default, so the experiment
    runners never thread them through. ``parallelism``, ``backend`` and
    ``chaos`` are execution knobs — results are bit-identical at any
    value — while ``shards`` and ``max_shards`` are semantic knobs,
    which is why the historical silent clamp became visible. The
    fields are described on :class:`Runner`.
    """

    parallelism: int = 1
    backend: str = "event"
    shards: int | None = None
    max_shards: int | None = None
    chaos: CoordinatorChaos | None = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"expected one of {BACKENDS}")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.max_shards is not None and self.max_shards < 1:
            raise ValueError("max_shards must be >= 1")

    def override(self, **knobs: Any) -> ExecOptions:
        """A copy with every knob in ``knobs`` that is not ``None`` set."""
        return replace(self, **{
            name: value for name, value in knobs.items()
            if value is not None})


_DEFAULT_EXEC_OPTIONS: ExecOptions | None = None


def set_default_exec_options(options: ExecOptions | None) -> None:
    """Install (or clear, with ``None``) the process-default options."""
    global _DEFAULT_EXEC_OPTIONS
    _DEFAULT_EXEC_OPTIONS = options


def default_exec_options() -> ExecOptions:
    """The installed process default, or the quiet default."""
    if _DEFAULT_EXEC_OPTIONS is not None:
        return _DEFAULT_EXEC_OPTIONS
    return ExecOptions()


# ----------------------------------------------------------------------
# World provisioning: cache + explicit source (no module-global state)
# ----------------------------------------------------------------------


class WorldCache:
    """Size-bounded LRU cache of generated :class:`World` objects.

    Parameters
    ----------
    max_worlds:
        In-memory bound; the least-recently-used world is evicted once
        the bound is exceeded.
    """

    def __init__(self, max_worlds: int = 16) -> None:
        if max_worlds < 1:
            raise ValueError("max_worlds must be >= 1")
        self.max_worlds = int(max_worlds)
        self._worlds: OrderedDict[tuple[object, ...], World] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._worlds)

    def get(self, config: ExperimentConfig,
            apps: Sequence[AppProfile] = TOP15) -> World:
        """Return the world for ``config``, building it at most once."""
        key = (config.world_key(), tuple(a.app_id for a in apps))
        cached = self._worlds.get(key)
        if cached is not None:
            self.hits += 1
            self._worlds.move_to_end(key)
            return cached
        self.misses += 1
        world = build_world(config, apps)
        self._worlds[key] = world
        while len(self._worlds) > self.max_worlds:
            self._worlds.popitem(last=False)
        return world

    def clear(self) -> None:
        """Drop all cached worlds."""
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
        The backing :class:`WorldCache` (``None``: a private one).
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
        self.cache = cache if cache is not None else WorldCache()
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


def run_shard(job: ShardJob, *, trace: bool = False,
              live: WorkerLiveSetup | None = None) -> ShardResult:
    """Run one shard's epoch loop(s): the one shard entry point.

    The in-process loop calls it for each job, and every
    :mod:`repro.dist` worker calls it for each claimed job — so a
    shard computes bit-for-bit the same result, streams the same
    beats, and writes the same crash postmortem wherever it ran.

    Activates a fresh shard-local :class:`~repro.obs.runtime.Obs`
    bundle around the run, so every component constructed inside binds
    shard-local instruments; ``trace`` records the shard's events into
    a per-shard :class:`~repro.obs.trace.MemoryRecorder`.

    When a :class:`~repro.obs.live.WorkerLiveSetup` is handed in, the
    trace recorder is additionally wrapped in a
    :class:`~repro.obs.flightrec.RingRecorder` flight recorder and a
    :class:`~repro.obs.live.BeatEmitter` publishes out-of-band
    heartbeats over the setup's transport. Both observe only: a live
    shard computes bit-for-bit what a quiet shard computes. If the
    shard raises, the flight recorder's ring is serialized into a
    crash postmortem before the exception propagates.
    """
    profiler = PhaseProfiler()
    inner = MemoryRecorder(shard=job.shard_index) if trace else None
    beats: BeatEmitter | None = None
    ring: RingRecorder | None = None
    recorder = inner
    if live is not None:
        ring = RingRecorder(inner if inner is not None else NULL_RECORDER,
                            shard=job.shard_index)
        recorder = ring
        beats = BeatEmitter(live.transport,
                            shard_index=job.shard_index,
                            n_shards=job.n_shards,
                            interval_s=live.beat_interval_s)
    obs = Obs.create(recorder, beats)
    result = ShardResult(shard_index=job.shard_index,
                         n_users=len(job.timelines))
    if beats is not None:
        beats.beat(0.0, users=result.n_users, force=True)  # hello
    try:
        with activate(obs), profiler.phase("shard.execute"):
            execution = execute_shard(job)
            if execution.prefetch is not None:
                artifacts: PrefetchArtifacts = execution.prefetch
                result.prefetch = artifacts.outcome
                result.replication_weight = float(
                    sum(1 for s in artifacts.server.plan_stats if s.sold))
            result.realtime = execution.realtime
    except BaseException as exc:
        if live is not None:
            # Best-effort: a postmortem that cannot be written returns
            # None rather than masking the shard's own exception.
            capture_shard_crash(
                shard_index=job.shard_index, n_shards=job.n_shards,
                system=job.mode, backend=job.backend,
                postmortem_dir=live.postmortem_dir, exc=exc, ring=ring,
                counters=obs.metrics.snapshot().counters)
        if beats is not None:
            beats.beat(0.0, users=result.n_users, failed=True)
        raise
    if beats is not None:
        beats.beat(job.horizon, users=result.n_users, final=True)
    result.metrics = obs.metrics.snapshot()
    result.events = obs.recorder.events() if trace else None
    stats = profiler.snapshot().phases.get("shard.execute")
    result.elapsed_s = stats.total_s if stats is not None else 0.0
    return result


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


def _result_metrics(prefetch: PrefetchOutcome | None,
                    realtime: RealtimeOutcome | None,
                    comparison: Comparison | None) -> dict[str, float]:
    """A run's flat, contract-addressable result metrics.

    The same flattening the batched-backend equivalence check uses
    (:func:`repro.sim.batched.prefetch_metrics` /
    :func:`~repro.sim.batched.realtime_metrics`), plus the headline
    comparison ratios — the ``metrics`` map of the run's record.
    """
    flat: dict[str, float] = {}
    if prefetch is not None:
        flat.update(prefetch_metrics(prefetch))
    if realtime is not None:
        flat.update(realtime_metrics(realtime))
    if comparison is not None:
        flat.update({
            "headline.energy_savings": comparison.energy_savings,
            "headline.revenue_loss": comparison.revenue_loss,
            "headline.sla_violation_rate": comparison.sla_violation_rate,
            "headline.wakeup_reduction": comparison.wakeup_reduction,
        })
    return flat


@dataclass(frozen=True, slots=True)
class RunResult:
    """Merged outcome of one :meth:`Runner.run` call.

    ``record`` is the run's :class:`~repro.obs.ledger.RunRecord`: its
    identity, counter totals and flat result metrics, exactly the row
    ``ObsOptions.ledger`` appends (with ``seq`` 0) and the ``record``
    section of the run's ``run.json``. The observability fields
    (``metrics``, ``profile``, ``resources``, ``trace_events``) are
    carried alongside the simulation outcomes and never feed back into
    them: a traced run's ``comparison`` is bit-for-bit identical to an
    untraced one. ``postmortems`` lists the ``lost`` and ``stall``
    postmortems the :mod:`repro.dist` coordinator wrote for shards it
    re-dispatched (empty in-process, where there is no lease). A
    shard that raises writes its own ``crash`` postmortem, which is
    not listed here.
    """

    system: str
    n_shards: int
    parallelism: int
    elapsed_s: float
    record: RunRecord
    prefetch: PrefetchOutcome | None = None
    realtime: RealtimeOutcome | None = None
    comparison: Comparison | None = None
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    profile: RunProfile = field(default_factory=RunProfile)
    trace_events: tuple[TraceEvent, ...] = ()
    artifacts_dir: Path | None = None
    resources: ResourceTelemetry = field(default_factory=ResourceTelemetry)
    postmortems: tuple[Path, ...] = ()
    #: Coordinator accounting (``None`` for in-process runs). Kept out
    #: of ``metrics`` on purpose: requeues and duplicate discards
    #: describe the unreliable substrate, not the simulation, and the
    #: merged snapshot must stay bit-identical at any parallelism.
    dist: "DistStats | None" = None

    def result_metrics(self) -> dict[str, float]:
        """The run's flat, contract-addressable result metrics.

        The ``metrics`` map of :attr:`record`: the flattening the
        batched-backend equivalence check uses plus the headline
        comparison ratios.
        """
        return dict(self.record.metrics)

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
        Worker processes for shard execution. With one effective worker
        (``min(parallelism, shards)``) and no chaos plan, shards run
        one after another in this process; otherwise the
        :class:`repro.dist.Coordinator` dispatches them to that many
        worker processes with beat-renewed leases and retry.
        Purely an execution knob: results are bit-for-bit identical at
        any value.
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
        builds a private one, pinned to ``world`` if given.
    world:
        Pre-built :class:`World` to reuse, bypassing the cache (sweeps
        sharing one trace across config variants; ignored when
        ``source`` is given).
    obs:
        Observability options (tracing, artifact directory). ``None``
        falls back to the process default installed by the CLI's
        ``--trace``/``--metrics-out`` flags (see
        :func:`repro.obs.runtime.set_default_obs_options`); pass
        ``ObsOptions()`` explicitly to force the quiet default.
    max_shards:
        Clamp on the *auto* shard count (``shards=None``); ``None``
        keeps the historical :data:`MAX_AUTO_SHARDS`. A semantic knob
        like ``shards``; when the clamp actually bites, the run's
        merged metrics carry a ``runner.auto_shards_clamped`` counter.
    chaos:
        Optional :class:`~repro.faults.CoordinatorChaos` plan (seeded
        worker kills / duplicated / delayed results). A non-empty plan
        always runs through the coordinator, even at
        ``parallelism=1``: a kill needs a separate worker process.
        Chaos runs must still merge bit-identically.

    ``parallelism``, ``shards``, ``backend``, ``max_shards`` and
    ``chaos`` are the :class:`ExecOptions` knobs: each one left
    ``None`` comes from the process default (see
    :func:`set_default_exec_options`), which also holds their defaults
    and validation.
    """

    def __init__(self, config: ExperimentConfig, *,
                 parallelism: int | None = None,
                 shards: int | None = None,
                 backend: str | None = None,
                 source: WorldSource | None = None,
                 world: World | None = None,
                 obs: ObsOptions | None = None,
                 max_shards: int | None = None,
                 chaos: CoordinatorChaos | None = None) -> None:
        options = default_exec_options().override(
            parallelism=parallelism, shards=shards, backend=backend,
            max_shards=max_shards, chaos=chaos)
        self.config = config
        self.parallelism = options.parallelism
        self.shards = options.shards
        self.backend = options.backend
        self.max_shards = options.max_shards
        self.chaos = (options.chaos if options.chaos is not None
                      and not options.chaos.is_empty else None)
        self.source = (source if source is not None
                       else WorldSource(world=world))
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

    def _jobs(self, system: str, world: World) -> list[ShardJob]:
        user_ids = list(world.timelines)
        n_shards = self.resolve_shards(len(user_ids))
        counts = epoch_slot_counts(world.trace, world.refresh_of,
                                   self.config.epoch_s)
        return [
            ShardJob(
                config=self.config,
                mode=system,
                apps=world.apps,
                timelines={uid: world.timelines[uid] for uid in chunk},
                profile_of={uid: world.profile_of[uid] for uid in chunk},
                counts={uid: counts[uid] for uid in chunk},
                horizon=world.trace.horizon,
                shard_index=index,
                n_shards=n_shards,
                backend=self.backend,
            )
            for index, chunk in enumerate(partition_users(user_ids,
                                                          n_shards))]

    def run(self, system: str = "headline") -> RunResult:
        """Execute ``system`` over the config's population.

        ``system`` is ``"prefetch"``, ``"realtime"``, or ``"headline"``
        (both, compared on the identical trace). With one effective
        worker and no chaos plan the shards run serially in this
        process; otherwise a :class:`repro.dist.Coordinator` dispatches
        them to worker processes with beat-renewed leases and retry.
        Both paths merge shard results in shard-index order with
        duplicates discarded, so the metrics are identical.
        """
        if system not in SYSTEMS:
            raise ValueError(
                f"unknown system {system!r}; expected one of {SYSTEMS}")
        options = self.obs if self.obs is not None else default_obs_options()
        trace = bool(options.trace) if options is not None else False
        live = options.live if options is not None else None
        if live is not None:
            live = self._with_postmortem_dir(live, options)
        profiler = PhaseProfiler()
        started = time.perf_counter()
        with profiler.phase("world.build"):
            world = self.source.world_for(self.config)
        jobs = self._jobs(system, world)
        workers = min(self.parallelism, len(jobs))
        dist_stats: "DistStats | None" = None
        postmortems: tuple[Path, ...] = ()
        with profiler.phase("shards.execute"):
            if workers == 1 and self.chaos is None:
                if live is None:
                    results = [run_shard(job, trace=trace) for job in jobs]
                else:
                    with LivePlane(live, n_shards=len(jobs)) as plane:
                        setup = plane.worker_setup()
                        results = [run_shard(job, trace=trace, live=setup)
                                   for job in jobs]
            else:
                from repro.dist.coordinator import Coordinator

                coordinator = Coordinator(
                    jobs,
                    workers=workers,
                    trace=trace,
                    live=(live if live is not None
                          else self._with_postmortem_dir(LiveOptions(),
                                                         options)),
                    chaos=self.chaos,
                )
                results = coordinator.run()
                dist_stats = coordinator.stats
                postmortems = tuple(coordinator.postmortems)
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
                # parallelism — so folding it into the merged snapshot
                # keeps bit-identity across parallelism intact.
                metrics = metrics.merge(MetricsSnapshot(
                    counters={"runner.auto_shards_clamped": 1.0}))
            events: list[TraceEvent] = []
            if trace:
                for shard in results:
                    events.extend(shard.events or [])
        elapsed_s = time.perf_counter() - started
        record = RunRecord.for_run(
            self.config, system=system, n_shards=len(jobs),
            parallelism=self.parallelism, backend=self.backend,
            counter_totals=metrics.counters,
            metrics=_result_metrics(prefetch, realtime, comparison),
            metrics_digest=snapshot_digest(metrics))
        profile = profiler.snapshot()
        resources = collect_telemetry(
            elapsed_s=elapsed_s,
            users_total=metrics.counters.get("throughput.users_total", 0.0),
            events_total=metrics.counters.get("throughput.events_total", 0.0))
        artifacts_dir: Path | None = None
        if options is not None and options.out_dir is not None:
            artifacts_dir = next_run_dir(options, system)
            write_run(artifacts_dir, RunFile(
                record=record, config=config_jsonable(self.config),
                trace_enabled=trace, elapsed_s=elapsed_s, metrics=metrics,
                profile=profile, resources=resources))
            if trace:
                write_jsonl(events, artifacts_dir / TRACE_FILENAME)
                write_chrome(events, artifacts_dir / CHROME_FILENAME)
        if options is not None and options.ledger is not None:
            Ledger(options.ledger).append(record)
        return RunResult(
            system=system,
            n_shards=len(jobs),
            parallelism=self.parallelism,
            elapsed_s=elapsed_s,
            record=record,
            prefetch=prefetch,
            realtime=realtime,
            comparison=comparison,
            metrics=metrics,
            profile=profile,
            trace_events=tuple(events),
            artifacts_dir=artifacts_dir,
            resources=resources,
            postmortems=postmortems,
            dist=dist_stats,
        )

    @staticmethod
    def _with_postmortem_dir(live: LiveOptions,
                             options: ObsOptions | None) -> LiveOptions:
        """Default the postmortem dir into the run's artifact tree."""
        if live.postmortem_dir is not None:
            return live
        if options is None or options.out_dir is None:
            return live
        return replace(
            live, postmortem_dir=Path(options.out_dir) / "postmortems")
