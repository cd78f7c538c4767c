"""End-to-end run harness (single-shard core).

Builds the world (population + trace + compiled timelines), then runs a
set of clients under either serving discipline. The core here operates
on **one user subset at a time**; :mod:`repro.runner` partitions a
population into deterministic shards and drives this core once per
shard (possibly in parallel worker processes), then merges the results
through :mod:`repro.metrics.accumulators`.

Public entry points:

* :class:`repro.runner.Runner` — the supported API for full runs.
* :class:`ShardJob` / :func:`execute_shard` — the single-shard core: a
  ``ShardJob`` names the user subset, the serving ``mode``, and the
  execution ``backend``; ``execute_shard`` dispatches it to the
  event-driven engine or the vectorized :mod:`repro.sim.batched`
  backend (whole population == one shard with an empty RNG tag).
* :meth:`ShardJob.for_world` — convenience constructor for
  whole-population jobs (experiments, tests, introspection).

When the configuration carries a non-empty :class:`repro.faults.plan.
FaultPlan`, both serving modes build a :class:`repro.faults.
FaultInjector` and thread per-user fault decisions through the clients
(and the baseline's per-slot fetches); scheduled server blackouts turn
planning epochs into :meth:`~repro.server.adserver.AdServer.
degraded_epoch` records.

Worlds are provided by an explicit :class:`repro.runner.WorldSource`
owned by the caller — shard execution itself holds no module-global
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.baselines.realtime import run_realtime as _run_realtime_engine
from repro.client.device import Device
from repro.client.sdk import AdClient
from repro.client.timeline import ClientTimeline, compile_timeline
from repro.core.overbooking import make_policy
from repro.exchange.auction import AuctionConfig
from repro.exchange.campaign import CampaignPoolConfig, build_campaigns
from repro.exchange.marketplace import Exchange
from repro.faults.injector import make_injector
from repro.faults.plan import FaultPlan
from repro.metrics.energy import aggregate_devices
from repro.metrics.outcomes import PrefetchOutcome, RealtimeOutcome
from repro.obs.live import shard_heartbeat
from repro.obs.runtime import current_obs
from repro.prediction.base import epochs_per_day, make_predictor
from repro.prediction.models import OraclePredictor
from repro.radio.profiles import RadioProfile, get_profile
from repro.server.adserver import AdServer
from repro.sim.batched import BatchedAdServer, LogDevice
from repro.sim.rng import RngRegistry
from repro.traces.generator import TraceConfig, TraceGenerator
from repro.traces.schema import Trace
from repro.traces.stats import epoch_slot_counts, refresh_map
from repro.workloads.appstore import TOP15, AppProfile
from repro.workloads.population import build_population

from .config import ExperimentConfig

#: Serving disciplines a :class:`ShardJob` can request.
MODES = ("prefetch", "realtime", "headline")

#: Execution engines a :class:`ShardJob` can request.
BACKENDS = ("event", "batched")


def shard_rng_tag(shard_index: int, n_shards: int) -> str:
    """RNG-stream namespace for one shard.

    Empty for a single shard (the historical stream names), so a
    whole-population job reproduces the pre-sharding serial results
    exactly.
    """
    if n_shards == 1:
        return ""
    return f"#shard{shard_index}/{n_shards}"


@dataclass(slots=True)
class PrefetchArtifacts:
    """Instrumented view of a prefetch run (experiments E12, tests)."""

    outcome: PrefetchOutcome
    devices: dict[str, Device]
    clients: dict
    server: AdServer


@dataclass(slots=True)
class World:
    """A generated population, its trace, and compiled timelines."""

    config_key: tuple
    trace: Trace
    apps: tuple[AppProfile, ...]
    timelines: dict[str, ClientTimeline]
    refresh_of: dict[str, float]
    profile_of: dict[str, RadioProfile]


def world_from_trace(config: ExperimentConfig, trace: Trace,
                     apps: Sequence[AppProfile] = TOP15) -> World:
    """Compile a :class:`World` from an already-generated trace.

    Radio-profile assignment draws from the seed-derived
    ``radio-assignment`` stream in sorted-user order, so the same trace
    always yields the same assignment.
    """
    registry = RngRegistry(config.seed)
    base_profile = get_profile(config.radio)
    wifi = get_profile("wifi")
    assign_rng = registry.stream("radio-assignment")
    profile_of: dict[str, RadioProfile] = {}
    timelines: dict[str, ClientTimeline] = {}
    for user in trace.sorted_users():
        profile = (wifi if assign_rng.random() < config.wifi_fraction
                   else base_profile)
        profile_of[user.user_id] = profile
        timelines[user.user_id] = compile_timeline(user, apps, profile)
    return World(
        config_key=config.world_key(),
        trace=trace,
        apps=tuple(apps),
        timelines=timelines,
        refresh_of=refresh_map(apps),
        profile_of=profile_of,
    )


def build_world(config: ExperimentConfig,
                apps: Sequence[AppProfile] = TOP15) -> World:
    """Generate the population + trace for ``config`` and compile it."""
    registry = RngRegistry(config.seed)
    population = build_population(config.population_config(),
                                  registry.stream("population"), tuple(apps))
    generator = TraceGenerator(apps, TraceConfig(n_days=config.n_days),
                               registry.stream("trace"))
    trace = generator.generate(population)
    return world_from_trace(config, trace, apps)


# ----------------------------------------------------------------------
# The shard-execution API
# ----------------------------------------------------------------------


@dataclass(slots=True, kw_only=True)
class ShardJob:
    """One unit of shard execution: *what* to simulate and *how*.

    A job carries plain data (config, timeline arrays, per-user radio
    profiles and slot counts) so it can be shipped to worker processes;
    ``backend`` selects the execution engine without changing the job's
    meaning — the batched backend is equivalent to the event engine
    under the contract in :mod:`repro.sim.batched`.

    This class is a serialization root of the shard boundary: every
    type reachable from its fields must stay statically picklable
    (``repro-lint`` RPR007 walks the closure and rejects callables,
    loggers, locks, handles, and lambda defaults), and the
    ``kw_only``/``slots`` declaration below is part of the checked
    contract.
    """

    config: ExperimentConfig
    apps: tuple[AppProfile, ...]
    timelines: Mapping[str, ClientTimeline]
    profile_of: Mapping[str, RadioProfile]
    horizon: float
    mode: str = "headline"
    #: Per-user epoch slot counts; required for prefetch modes.
    counts: Mapping[str, np.ndarray] | None = None
    shard_index: int = 0
    n_shards: int = 1
    backend: str = "event"
    #: Record full radio state timelines (event backend only; E12).
    keep_radio_timeline: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKENDS}")
        if self.keep_radio_timeline and self.backend != "event":
            raise ValueError(
                "keep_radio_timeline requires the event backend (the "
                "batched backend settles radio energy without a state "
                "timeline)")
        if self.mode in ("prefetch", "headline") and self.counts is None:
            raise ValueError(
                f"mode {self.mode!r} needs per-user slot counts; pass "
                "counts= or build the job with ShardJob.for_world()")

    @property
    def rng_tag(self) -> str:
        return shard_rng_tag(self.shard_index, self.n_shards)

    @classmethod
    def for_world(cls, config: ExperimentConfig, world: World, *,
                  mode: str = "headline", backend: str = "event",
                  keep_radio_timeline: bool = False) -> "ShardJob":
        """Whole-population job over ``world`` (single shard, empty tag)."""
        counts = None
        if mode in ("prefetch", "headline"):
            counts = epoch_slot_counts(world.trace, world.refresh_of,
                                       config.epoch_s)
        return cls(config=config, apps=world.apps,
                   timelines=world.timelines, profile_of=world.profile_of,
                   counts=counts, horizon=world.trace.horizon,
                   mode=mode, backend=backend,
                   keep_radio_timeline=keep_radio_timeline)


@dataclass(slots=True)
class ShardExecution:
    """What :func:`execute_shard` produced for one job."""

    job: ShardJob
    prefetch: PrefetchArtifacts | None = None
    realtime: RealtimeOutcome | None = None


def execute_shard(job: ShardJob) -> ShardExecution:
    """Run one shard job on its selected backend.

    Dispatches each requested serving mode to the event-driven engine
    or the vectorized batched engine. The cross-user protocol order
    (server dispatch, auctions, rescue) is event-driven on both
    backends; the batched backend replaces the per-user radio and
    rescue hot paths with array operations (see
    :mod:`repro.sim.batched`).

    Purity contract: this function and everything it reaches must be a
    pure function of ``job`` — no module-global writes, environment
    mutation, open handles, or process state — so a dropped worker's
    shard can be re-executed bit-identically. ``repro-lint`` RPR006
    enforces this over the whole reachability closure.
    """
    result = ShardExecution(job=job)
    if job.mode in ("prefetch", "headline"):
        result.prefetch = _execute_prefetch(job)
    if job.mode in ("realtime", "headline"):
        result.realtime = _execute_realtime(job)
    return result


def _build_exchange(campaigns: CampaignPoolConfig, auction: AuctionConfig,
                    registry: RngRegistry, stream: str, rng_tag: str = "",
                    component: str = "exchange") -> Exchange:
    """Build a marketplace on tagged RNG streams.

    ``rng_tag`` namespaces the campaign and auction streams per shard so
    shard-local exchanges are mutually independent yet deterministic in
    the shard layout alone (never in worker count or scheduling).
    ``component`` namespaces the marketplace's observability instruments
    (headline runs hold a prefetch and a real-time exchange per shard).
    """
    pool = build_campaigns(campaigns, registry.fresh("campaigns" + rng_tag))
    return Exchange(pool, auction, registry.fresh(stream + rng_tag),
                    component=component)


def _execute_prefetch(job: ShardJob) -> PrefetchArtifacts:
    """Run the prefetch system over one user subset (a shard).

    Identical epoch loop on both backends; the batched backend swaps in
    the vectorized server and device components.
    """
    config = job.config
    timelines = job.timelines
    counts = job.counts
    assert counts is not None  # enforced by ShardJob.__post_init__
    rng_tag = job.rng_tag
    batched = job.backend == "batched"
    server_cls = BatchedAdServer if batched else AdServer
    device_cls = LogDevice if batched else Device

    registry = RngRegistry(config.seed)
    per_day = epochs_per_day(config.epoch_s)
    first_test = config.train_days * per_day
    n_epochs = config.n_days * per_day

    predictors = {}
    for uid in counts:
        predictor = make_predictor(config.predictor, config.epoch_s,
                                   **config.predictor_kwargs)
        if isinstance(predictor, OraclePredictor):
            predictor.set_truth(counts[uid], start_epoch=0)
        predictors[uid] = predictor

    exchange = _build_exchange(config.campaign_config(),
                               config.auction_config(), registry,
                               "exchange-prefetch", rng_tag)
    policy = make_policy(config.policy, **config.policy_kwargs_full())
    server = server_cls(config.server_config(), exchange, policy, predictors,
                        registry.fresh("dispatch" + rng_tag))
    server.warm_up({uid: counts[uid][:first_test] for uid in counts})

    devices = {uid: device_cls(uid, job.profile_of[uid],
                               keep_timeline=job.keep_radio_timeline)
               for uid in timelines}
    injector = make_injector(config.faults, config.seed, job.horizon)
    clients = {
        uid: AdClient(timelines[uid], devices[uid], job.apps,
                      report_delay_s=config.report_delay_s,
                      faults=(injector.for_user(uid)
                              if injector is not None else None))
        for uid in timelines
    }

    obs = current_obs()
    obs_recorder = obs.recorder
    # Deterministic throughput totals, shared with the realtime engine
    # and identical on both backends (the epoch loop below is the
    # backend-independent part): users simulated and timeline events
    # replayed. repro.obs.resources divides them by wall clock for
    # users/sec / events/sec telemetry.
    obs.metrics.counter("throughput.users_total").inc(len(timelines))
    events_counter = obs.metrics.counter("throughput.events_total")
    events_done = 0
    for epoch in range(first_test, n_epochs):
        now = epoch * config.epoch_s
        window_end = min(now + config.epoch_s, job.horizon)
        if obs_recorder.enabled:
            obs_recorder.complete(now, window_end - now, "server", "epoch",
                                  args={"epoch": epoch})
        server_down = injector is not None and injector.server_down(now)
        if server_down:
            # Scheduled blackout at planning time: nothing is sold or
            # dispatched; clients keep serving from their caches and
            # their contact attempts fail at the injector.
            server.degraded_epoch(epoch, now)
        else:
            server.plan_epoch(epoch, now)
        # Clients sync at their first slot; process in sync-time order so
        # cross-client report visibility is chronological.
        schedule: list[tuple[float, str]] = []
        epoch_events = 0
        for uid, timeline in timelines.items():
            times, _, _ = timeline.window(now, window_end)
            if times.size == 0:
                continue
            epoch_events += int(times.size)
            first_slot = timeline.first_slot_in(now, window_end)
            schedule.append((first_slot if first_slot is not None
                             else float("inf"), uid))
        schedule.sort()
        scheduled = set()
        for _, uid in schedule:
            clients[uid].run_epoch(now, window_end, server)
            scheduled.add(uid)
        # Clients idle this epoch may still owe an impression beacon
        # (background report timer).
        for uid, client in clients.items():
            if uid not in scheduled:
                client.flush_overdue(now, window_end, server)
        if not server_down:
            # Actuals ride client sync payloads; during a blackout the
            # server learns nothing about the finished epoch.
            server.observe_epoch(epoch, {uid: int(counts[uid][epoch])
                                         for uid in counts})
        events_counter.inc(epoch_events)
        events_done += epoch_events
        # Per-shard heartbeat at the epoch boundary: the shared helper
        # emits the sim-time trace instant (the liveness/progress
        # signal a coordinator/worker runner can consume from the
        # trace stream — deterministic at any parallelism and on both
        # backends, since this loop *is* both backends) and, when the
        # live plane is active, the out-of-band ShardBeat.
        shard_heartbeat(obs, window_end, component="prefetch",
                        done=epoch - first_test + 1,
                        total=n_epochs - first_test,
                        users=len(timelines), events_done=events_done)

    wakeups_counter = obs.metrics.counter("radio.wakeups")
    for device in devices.values():
        device.finish(job.horizon)
        wakeups_counter.inc(device.wakeups)
    _outcomes, sla, revenue = server.finalize()

    cached = sum(c.stats.cached_displays for c in clients.values())
    rescued = sum(c.stats.rescued_displays for c in clients.values())
    fallback = sum(c.stats.fallback_displays for c in clients.values())
    house = sum(c.stats.house_displays for c in clients.values())
    wasted = sum(c.queue.stats.wasted + len(c.queue) for c in clients.values())
    outcome = PrefetchOutcome(
        energy=aggregate_devices(devices.values(), float(config.test_days)),
        sla=sla,
        revenue=revenue,
        cached_displays=cached,
        rescued_displays=rescued,
        fallback_displays=fallback,
        house_displays=house,
        wasted_downloads=wasted,
        mean_replication=server.mean_replication_factor(),
        syncs=server.syncs,
    )
    return PrefetchArtifacts(outcome=outcome, devices=devices,
                             clients=clients, server=server)


@dataclass(frozen=True, slots=True)
class RealtimeKey:
    """Everything the realtime baseline reads besides the world.

    :func:`_execute_realtime` reads the run's config only through this
    record, so on one world (timelines, radio profiles, apps, horizon)
    two runs whose keys are equal replay the identical baseline on
    every shard, bit for bit. :class:`repro.runner.WorldSource` memoizes
    the baseline under it.
    """

    backend: str
    n_shards: int
    seed: int
    #: Sim time at which the replay window opens.
    window_start: float
    faults: FaultPlan
    campaigns: CampaignPoolConfig
    auction: AuctionConfig


def realtime_key(config: ExperimentConfig, *, backend: str,
                 n_shards: int) -> RealtimeKey:
    """The :class:`RealtimeKey` of ``config`` on ``n_shards`` shards."""
    return RealtimeKey(
        backend=backend, n_shards=n_shards, seed=config.seed,
        window_start=(config.train_days * epochs_per_day(config.epoch_s)
                      * config.epoch_s),
        faults=config.faults, campaigns=config.campaign_config(),
        auction=config.auction_config())


def _execute_realtime(job: ShardJob) -> RealtimeOutcome:
    """Run the status-quo baseline over one user subset (a shard)."""
    key = realtime_key(job.config, backend=job.backend,
                       n_shards=job.n_shards)
    registry = RngRegistry(key.seed)
    exchange = _build_exchange(
        key.campaigns, key.auction, registry, "exchange-realtime",
        shard_rng_tag(job.shard_index, key.n_shards),
        component="realtime.exchange")
    injector = make_injector(key.faults, key.seed, job.horizon)
    return _run_realtime_engine(
        dict(job.timelines), job.apps, dict(job.profile_of), exchange,
        key.window_start, job.horizon, injector=injector,
        device_cls=LogDevice if key.backend == "batched" else Device)
