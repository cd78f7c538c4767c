"""The coordinator: lease-based dispatch with stealing and retries.

One :class:`Coordinator` drives one run's shard set to completion over
an unreliable worker fleet, without ever touching a simulation object:

* **Dispatch** — every shard is offered on the transport as a
  :class:`~repro.dist.protocol.JobEnvelope` with a lease window; the
  shared jobs queue makes claiming self-balancing.
* **Work-stealing** — a claimed job whose lease expires (no result, no
  heartbeat) is re-offered with ``attempt + 1``; whichever idle worker
  claims it steals the work. The original execution, if it ever
  delivers, is discarded as a duplicate by shard index.
* **Leases start at the claim** — a shard waiting in the jobs queue
  behind busy workers has no lease clock, however long it waits. Only
  once a worker reports idle (its claim found the queue empty) does a
  still-unclaimed shard get a lease window, and only while some worker
  stays idle: a shard nobody acks by then was lost between a worker's
  claim and its ack.
* **Heartbeat-driven leases** — workers publish each shard's
  :class:`~repro.obs.live.ShardBeat` records on the control channel
  beside acks and results. Every beat of a claimed shard renews its
  lease, so a healthy shard may run past ``lease_s``; the beats also
  feed the :class:`~repro.obs.live.LivePlane` aggregator, whose
  watchdog's stall events (wall-clock beat silence) expire a claimed
  lease *early*, so a hung worker is stolen from long before the full
  lease elapses.
* **Worker loss** — a dead worker process (chaos kill, OOM, SIGKILL)
  has its leased shards requeued immediately, a ``lost`` postmortem
  written per shard, and a replacement spawned while work remains.
* **Bounded retry** — each shard is dispatched at most
  ``max_attempts`` times; exhaustion raises :class:`DistError` rather
  than silently dropping a shard from the merge.
* **Deterministic merge** — :meth:`Coordinator.run` returns exactly
  one :class:`~repro.runner.ShardResult` per shard index, in shard
  order, regardless of arrival order, duplicates, or which attempt
  won. Shard execution is pure (RPR006), so every attempt of a shard
  yields the same bits and the merged run equals the in-process run.

The coordinator is an execution-plane component: wall clocks are fair
game here (leases, joins, polls) because nothing in this module feeds
into simulation results.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.faults.chaos import CoordinatorChaos
from repro.obs import log as obs_log
from repro.obs.flightrec import Postmortem
from repro.obs.live import (
    CallbackTransport,
    LiveOptions,
    LivePlane,
    ShardBeat,
    StragglerEvent,
)

from .protocol import (
    PROTOCOL_VERSION,
    JobAck,
    JobEnvelope,
    JobNack,
    ResultEnvelope,
    WorkerBeat,
    WorkerHello,
)
from .transport import ManagerTransport, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import multiprocessing.process

    from repro.experiments.harness import ShardJob
    from repro.runner import ShardResult

_log = obs_log.get_logger("dist.coordinator")


class DistError(RuntimeError):
    """A shard could not be completed within the retry budget."""


@dataclass(frozen=True, slots=True)
class DistStats:
    """Execution-plane accounting for one distributed run.

    Deliberately kept *out* of the merged
    :class:`~repro.obs.metrics.MetricsSnapshot`: retries and duplicate
    discards are properties of the unreliable substrate, not of the
    simulation, and folding them in would break the bit-identity
    contract with the in-process run.
    """

    workers: int
    workers_spawned: int = 0
    workers_lost: int = 0
    requeues: int = 0
    stall_steals: int = 0
    duplicates_discarded: int = 0
    nacks: int = 0
    attempts: int = 0


@dataclass(slots=True)
class _ShardState:
    """Coordinator-side lifecycle of one shard."""

    job: "ShardJob"
    job_id: str
    attempt: int = 0
    #: The worker that acked the current attempt ("" while unclaimed).
    worker_id: str = ""
    #: Monotonic lease expiry; ``inf`` while no lease clock runs.
    deadline: float = float("inf")
    done: bool = False
    last_reason: str = ""


@dataclass(slots=True)
class _WorkerHandle:
    """One spawned worker process and what it currently holds."""

    worker_id: str
    process: "multiprocessing.process.BaseProcess"
    lost_handled: bool = False
    jobs_done: int = 0
    #: Last heard idle (a WorkerBeat) and not acked a job since.
    idle: bool = False


def _job_id(shard_index: int) -> str:
    """Stable job id for a shard (attempts ride the envelope)."""
    return f"shard-{shard_index:03d}"


@dataclass(slots=True)
class _Hooks:
    """Thread-safe mailbox for watchdog events (plane thread → loop)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    stalled: list[int] = field(default_factory=list)

    def on_straggler(self, event: StragglerEvent) -> None:
        if event.kind != "stall":
            return
        with self.lock:
            self.stalled.append(event.shard_index)

    def drain(self) -> list[int]:
        with self.lock:
            out, self.stalled = self.stalled, []
        return out


class Coordinator:
    """Drives one run's shards to completion over worker processes.

    Parameters
    ----------
    jobs:
        The run's :class:`~repro.experiments.harness.ShardJob` list (one
        per shard index, as built by :meth:`repro.runner.Runner._jobs`);
        each is the payload of its dispatch.
    workers:
        Worker processes to keep alive while undone shards remain
        (clamped to the shard count; lost workers are respawned).
    trace:
        Record each shard's sim-time trace events (the run-wide
        ``--trace`` flag, shipped to workers beside ``live``/``chaos``).
    live:
        :class:`~repro.obs.live.LiveOptions` for the telemetry plane
        the coordinator always runs — heartbeats are its failure
        detector, not an optional nicety. ``None`` uses quiet
        defaults.
    chaos:
        Optional :class:`~repro.faults.CoordinatorChaos` plan shipped
        to workers (seeded kills / duplicates / delays).
    transport:
        Transport backend; ``None`` builds a
        :class:`~repro.dist.transport.ManagerTransport`. An injected
        transport is not closed by the coordinator.
    lease_s:
        Lease window per claim, renewed by every beat of the shard;
        an expired lease is requeued. Unclaimed shards get the same
        window only while a worker is idle.
    max_attempts:
        Dispatch budget per shard; exhaustion raises
        :class:`DistError`.
    """

    def __init__(self, jobs: Sequence["ShardJob"], *, workers: int,
                 trace: bool = False,
                 live: LiveOptions | None = None,
                 chaos: CoordinatorChaos | None = None,
                 transport: Transport | None = None,
                 system: str = "", backend: str = "",
                 lease_s: float = 120.0, max_attempts: int = 3,
                 poll_s: float = 0.05) -> None:
        if not jobs:
            raise ValueError("jobs must be non-empty")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.jobs = list(jobs)
        self.workers = min(int(workers), len(self.jobs))
        self.trace = bool(trace)
        self.live = live if live is not None else LiveOptions()
        self.chaos = chaos
        self._transport = transport
        self._owns_transport = transport is None
        self.system = system
        self.backend = backend
        self.lease_s = float(lease_s)
        self.max_attempts = int(max_attempts)
        self.poll_s = float(poll_s)
        self._hooks = _Hooks()
        self._shards: dict[int, _ShardState] = {}
        self._handles: dict[str, _WorkerHandle] = {}
        self._results: dict[int, "ShardResult"] = {}
        self._worker_seq = 0
        self._spawned = 0
        self._lost = 0
        self._requeues = 0
        self._stall_steals = 0
        self._duplicates = 0
        self._nacks = 0
        self._attempts = 0
        self.postmortems: list[Path] = []
        self.plane: LivePlane | None = None

    # -- public API ---------------------------------------------------

    def run(self) -> list["ShardResult"]:
        """Execute every shard; results in shard-index order.

        Raises :class:`DistError` when any shard exhausts its retry
        budget or the worker fleet cannot make progress. Always tears
        down workers, the live plane, and an owned transport.
        """
        transport = self._transport
        if transport is None:
            transport = self._transport = ManagerTransport()
        plane = LivePlane(self.live, n_shards=len(self.jobs),
                          system=self.system, backend=self.backend,
                          on_straggler=self._hooks.on_straggler)
        self.plane = plane
        plane.start()
        failed = False
        try:
            for job in self.jobs:
                index = job.shard_index
                self._shards[index] = _ShardState(
                    job=job, job_id=_job_id(index))
                self._offer(self._shards[index])
            for _ in range(self.workers):
                self._spawn_worker(transport, plane)
            while len(self._results) < len(self._shards):
                item = transport.collect(self.poll_s)
                if item is not None:
                    self._handle(item)
                self._steal_stalled()
                self._check_leases()
                self._check_workers(transport, plane)
        except BaseException:
            failed = True
            raise
        finally:
            self._shutdown(transport, plane, failed=failed)
        return [self._results[i] for i in sorted(self._results)]

    @property
    def stats(self) -> DistStats:
        """Execution-plane accounting (after :meth:`run`)."""
        return DistStats(
            workers=self.workers,
            workers_spawned=self._spawned,
            workers_lost=self._lost,
            requeues=self._requeues,
            stall_steals=self._stall_steals,
            duplicates_discarded=self._duplicates,
            nacks=self._nacks,
            attempts=self._attempts,
        )

    # -- dispatch -----------------------------------------------------

    def _offer(self, state: _ShardState) -> None:
        assert self._transport is not None
        envelope = JobEnvelope(
            job_id=state.job_id,
            shard_index=state.job.shard_index,
            n_shards=state.job.n_shards,
            attempt=state.attempt,
            lease_s=self.lease_s,
        )
        state.worker_id = ""
        state.deadline = float("inf")       # no clock until claimed
        self._attempts += 1
        self._transport.offer(envelope, state.job)

    def _requeue(self, state: _ShardState, reason: str, *,
                 stolen: bool = False) -> None:
        """Re-dispatch one undone shard with the next attempt number."""
        if state.done:
            return
        if state.attempt + 1 >= self.max_attempts:
            raise DistError(
                f"shard {state.job.shard_index} failed after "
                f"{state.attempt + 1} attempt(s): {reason}")
        state.attempt += 1
        state.last_reason = reason
        self._requeues += 1
        if stolen:
            self._stall_steals += 1
        if self.plane is not None:
            self.plane.aggregator.reset_shard(state.job.shard_index)
        _log.warning("re-dispatching shard %d (attempt %d): %s",
                     state.job.shard_index, state.attempt, reason)
        self._offer(state)

    def _spawn_worker(self, transport: Transport, plane: LivePlane) -> None:
        import multiprocessing

        worker_id = f"w{self._worker_seq}"
        self._worker_seq += 1
        from .worker import worker_main

        endpoint = transport.worker_endpoint()
        # The worker's beats ride its control channel back to _handle.
        live = plane.worker_setup(CallbackTransport(endpoint.send))
        process = multiprocessing.Process(
            target=worker_main,
            args=(endpoint, worker_id),
            kwargs={"trace": self.trace, "live": live, "chaos": self.chaos},
            name=f"repro-dist-{worker_id}",
            daemon=True,
        )
        process.start()
        self._handles[worker_id] = _WorkerHandle(worker_id=worker_id,
                                                 process=process)
        self._spawned += 1

    # -- control-plane handling ---------------------------------------

    def _handle(self, item: tuple[object, object]) -> None:
        message, payload = item
        if isinstance(message, ShardBeat):
            self._on_beat(message)
            return
        if isinstance(message, WorkerHello):
            if message.protocol != PROTOCOL_VERSION:
                raise DistError(
                    f"worker {message.worker_id} speaks protocol "
                    f"{message.protocol}, coordinator speaks "
                    f"{PROTOCOL_VERSION}")
            return
        if isinstance(message, WorkerBeat):
            handle = self._handles.get(message.worker_id)
            if handle is not None:
                handle.jobs_done = message.jobs_done
                handle.idle = not message.busy
            if not message.busy:
                self._arm_unclaimed()
            return
        if isinstance(message, JobAck):
            handle = self._handles.get(message.worker_id)
            if handle is not None:
                handle.idle = False
            if not self._any_idle():
                self._disarm_unclaimed()
            state = self._shards.get(message.shard_index)
            if state is None or state.done or \
                    message.attempt != state.attempt:
                return  # stale claim of a finished or superseded attempt
            state.worker_id = message.worker_id
            state.deadline = time.monotonic() + self.lease_s
            return
        if isinstance(message, JobNack):
            self._nacks += 1
            state = self._shards.get(message.shard_index)
            if state is None or state.done or \
                    message.attempt != state.attempt:
                return
            self._requeue(state, f"worker {message.worker_id} nacked: "
                                 f"{message.reason}")
            return
        if isinstance(message, ResultEnvelope):
            self._handle_result(message, payload)

    def _on_beat(self, beat: ShardBeat) -> None:
        """Feed the watchdog and renew the lease of a claimed shard."""
        if self.plane is not None:
            self.plane.aggregator.ingest(beat)
        state = self._shards.get(beat.shard_index)
        if state is not None and not state.done and state.worker_id:
            state.deadline = time.monotonic() + self.lease_s

    def _any_idle(self) -> bool:
        return any(h.idle and not h.lost_handled
                   for h in self._handles.values())

    def _arm_unclaimed(self) -> None:
        """Start the lease clock of shards still unclaimed while a worker
        idles: the queue was empty, so nobody acking within a lease
        means the claim was lost in transit."""
        deadline = time.monotonic() + self.lease_s
        for state in self._shards.values():
            if not state.done and not state.worker_id and \
                    state.deadline == float("inf"):
                state.deadline = deadline

    def _disarm_unclaimed(self) -> None:
        """Every worker is busy: unclaimed shards are queued, not lost."""
        for state in self._shards.values():
            if not state.done and not state.worker_id:
                state.deadline = float("inf")

    def _handle_result(self, message: ResultEnvelope,
                       payload: object) -> None:
        from repro.runner import ShardResult

        state = self._shards.get(message.shard_index)
        if state is None:
            return
        if state.done:
            # A stolen lease's original execution (or a chaos
            # duplicate) delivered late: pure-function shards make the
            # copy bit-identical, so dropping it is free.
            self._duplicates += 1
            _log.info("discarding duplicate result for shard %d "
                      "(attempt %d from %s)", message.shard_index,
                      message.attempt, message.worker_id)
            return
        if not isinstance(payload, ShardResult):
            self._requeue(state, f"worker {message.worker_id} delivered a "
                                 f"malformed result payload "
                                 f"({type(payload).__name__})")
            return
        state.done = True
        state.worker_id = ""
        self._results[message.shard_index] = payload

    # -- failure detection --------------------------------------------

    def _steal_stalled(self) -> None:
        """Expire leases of shards the heartbeat watchdog flagged."""
        for shard_index in self._hooks.drain():
            state = self._shards.get(shard_index)
            if state is None or state.done or not state.worker_id:
                continue  # a queued shard is waiting, not stalled
            self._requeue(state,
                          f"heartbeat silence > "
                          f"{self.live.stall_after_s:.1f}s; stealing lease "
                          f"from {state.worker_id}",
                          stolen=True)

    def _check_leases(self) -> None:
        now = time.monotonic()
        for state in self._shards.values():
            if state.done or now < state.deadline:
                continue
            self._requeue(state,
                          f"lease expired after {self.lease_s:.1f}s "
                          f"(held by {state.worker_id or 'nobody'})",
                          stolen=bool(state.worker_id))

    def _check_workers(self, transport: Transport,
                       plane: LivePlane) -> None:
        undone = any(not s.done for s in self._shards.values())
        for handle in list(self._handles.values()):
            if handle.lost_handled or handle.process.is_alive():
                continue
            handle.lost_handled = True
            self._lost += 1
            code = handle.process.exitcode
            _log.warning("worker %s exited (code %s)", handle.worker_id,
                         code)
            for state in self._shards.values():
                if state.done or state.worker_id != handle.worker_id:
                    continue
                self._write_lost_postmortem(state, handle, plane)
                self._requeue(state,
                              f"worker {handle.worker_id} lost "
                              f"(exit code {code}) holding attempt "
                              f"{state.attempt}")
            if undone:
                self._spawn_worker(transport, plane)
        if undone and not any(h.process.is_alive()
                              for h in self._handles.values()):
            raise DistError("no live workers remain and shards are "
                            "still undone")

    def _write_lost_postmortem(self, state: _ShardState,
                               handle: _WorkerHandle,
                               plane: LivePlane) -> None:
        view = plane.aggregator.view(state.job.shard_index)
        postmortem = Postmortem(
            kind="lost",
            shard_index=state.job.shard_index,
            n_shards=state.job.n_shards,
            system=self.system,
            backend=self.backend,
            reason=(f"worker {handle.worker_id} exited (code "
                    f"{handle.process.exitcode}) holding shard "
                    f"{state.job.shard_index} attempt {state.attempt}; "
                    "re-dispatching"),
            last_beat=(view.last_beat.to_jsonable()
                       if view.last_beat is not None else None),
        )
        path = postmortem.write_to(plane.postmortem_dir)
        plane.note_postmortem(path)
        if path not in self.postmortems:
            self.postmortems.append(path)

    # -- teardown -----------------------------------------------------

    def _shutdown(self, transport: Transport, plane: LivePlane,
                  failed: bool) -> None:
        for _ in self._handles:
            try:
                transport.offer_stop()
            except (OSError, EOFError, BrokenPipeError):
                break
        for handle in self._handles.values():
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        # Workers are gone, so every send has landed: drain the
        # farewell traffic so duplicate accounting is complete. Pure
        # bookkeeping — a teardown drain must never raise.
        while True:
            item = transport.collect(0.0)
            if item is None:
                break
            message = item[0]
            if isinstance(message, ResultEnvelope):
                state = self._shards.get(message.shard_index)
                if state is not None and state.done:
                    self._duplicates += 1
        plane.finish(failed=failed)
        for path in plane.postmortems:
            if path not in self.postmortems:
                self.postmortems.append(path)
        if self._owns_transport:
            transport.close()
