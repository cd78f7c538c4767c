"""The coordinator: one pipe per worker, one lease per held shard.

One :class:`Coordinator` drives one run's shard set to completion over
an unreliable worker fleet, without ever touching a simulation object:

* **Dispatch** — each worker owns one duplex ``multiprocessing.Pipe``.
  A shard's :class:`~repro.dist.protocol.JobEnvelope` and payload go
  only to a worker whose latest message was
  :class:`~repro.dist.protocol.WorkerReady`, so every sent job is
  already claimed and a shard queued behind busy workers is never on
  the wire.
* **Leases** — a sent shard's lease starts at the send and runs for
  ``LiveOptions.stall_after_s``; every
  :class:`~repro.obs.live.ShardBeat` the holder sends for it renews
  the lease, so a healthy shard may run arbitrarily long. A lease that
  runs out is the one stall mechanism: the coordinator terminates the
  holder and handles it as a lost worker, with a ``stall`` postmortem.
  The beats also feed the :class:`~repro.obs.live.LivePlane`, a fold
  that renders progress and detects nothing.
* **Worker loss** — the main loop blocks in
  ``multiprocessing.connection.wait`` over every pipe and process
  sentinel until the nearest lease deadline. A sentinel or pipe EOF
  means the worker is gone: its held shard is requeued, a ``lost``
  postmortem written, and a replacement spawned while work remains.
* **Bounded retry** — each shard is dispatched at most
  ``max_attempts`` times; exhaustion raises :class:`DistError` rather
  than silently dropping a shard from the merge.
* **Deterministic merge** — :meth:`Coordinator.run` returns exactly
  one :class:`~repro.runner.ShardResult` per shard index, in shard
  order, regardless of arrival order, duplicates, or which attempt
  won. Shard execution is pure (RPR006), so every attempt of a shard
  yields the same bits and the merged run equals the in-process run.

The coordinator is an execution-plane component: wall clocks are fair
game here (leases, joins) because nothing in this module feeds into
simulation results.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.faults.chaos import CoordinatorChaos
from repro.obs import log as obs_log
from repro.obs.flightrec import Postmortem
from repro.obs.live import BeatTransport, LiveOptions, LivePlane, ShardBeat

from .protocol import (
    PROTOCOL_VERSION,
    JobEnvelope,
    JobNack,
    ResultEnvelope,
    WorkerReady,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import multiprocessing.process

    from repro.experiments.harness import ShardJob
    from repro.runner import ShardResult

_log = obs_log.get_logger("dist.coordinator")

#: Teardown budget for reading farewell traffic and joining workers.
_JOIN_TIMEOUT_S = 2.0


class DistError(RuntimeError):
    """A shard could not be completed within the retry budget."""


@dataclass(frozen=True, slots=True)
class DistStats:
    """Execution-plane accounting for one distributed run.

    Deliberately kept *out* of the merged
    :class:`~repro.obs.metrics.MetricsSnapshot`: retries and duplicate
    discards are properties of the unreliable substrate, not of the
    simulation, and folding them in would break the bit-identity
    contract with the in-process run. ``stall_steals`` counts expired
    leases.
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
    #: The worker holding the current attempt ("" while queued).
    worker_id: str = ""
    #: Monotonic lease expiry; ``inf`` while nobody holds the shard.
    deadline: float = float("inf")
    done: bool = False


@dataclass(slots=True)
class _WorkerHandle:
    """One spawned worker process, its pipe, and where it stands."""

    worker_id: str
    process: "multiprocessing.process.BaseProcess"
    conn: Connection
    #: Latest message was WorkerReady: the worker will read a job.
    ready: bool = False
    #: Has reported ready at least once (it started cleanly).
    greeted: bool = False
    #: Why the coordinator is terminating it ("" while in good standing).
    expired: str = ""
    lost: bool = False


def _job_id(shard_index: int) -> str:
    """Stable job id for a shard (attempts ride the envelope)."""
    return f"shard-{shard_index:03d}"


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
        the coordinator always runs — heartbeats renew leases, so they
        are its failure detector, not an optional nicety. Its
        ``stall_after_s`` is the lease window and its
        ``postmortem_dir`` receives the ``lost``/``stall`` postmortems.
        ``None`` uses quiet defaults.
    chaos:
        Optional :class:`~repro.faults.CoordinatorChaos` plan shipped
        to workers (seeded kills / duplicates / delays).
    max_attempts:
        Dispatch budget per shard; exhaustion raises
        :class:`DistError`.
    """

    def __init__(self, jobs: Sequence["ShardJob"], *, workers: int,
                 trace: bool = False,
                 live: LiveOptions | None = None,
                 chaos: CoordinatorChaos | None = None,
                 max_attempts: int = 3) -> None:
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
        self.max_attempts = int(max_attempts)
        self._shards = {job.shard_index: _ShardState(
            job=job, job_id=_job_id(job.shard_index)) for job in self.jobs}
        #: Shard indexes waiting for a ready worker, in dispatch order.
        self._queue: deque[int] = deque(self._shards)
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
        #: The ``lost``/``stall`` postmortems this coordinator wrote.
        self.postmortems: list[Path] = []
        self.plane = LivePlane(self.live, n_shards=len(self.jobs))

    # -- public API ---------------------------------------------------

    def run(self) -> list["ShardResult"]:
        """Execute every shard; results in shard-index order.

        Raises :class:`DistError` when any shard exhausts its retry
        budget or a worker dies before reporting ready. Always tears
        down the workers and renders the plane's last progress line.
        """
        try:
            for _ in range(self.workers):
                self._spawn_worker()
            while len(self._results) < len(self._shards):
                self._dispatch()
                self._wait_once()
                self._check_leases()
        finally:
            self._shutdown()
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

    def _dispatch(self) -> None:
        """Send queued shards to ready workers, one job per worker."""
        for handle in list(self._handles.values()):
            if not self._queue:
                return
            if handle.ready and not handle.lost and not handle.expired:
                self._send(handle, self._shards[self._queue.popleft()])

    def _send(self, handle: _WorkerHandle, state: _ShardState) -> None:
        envelope = JobEnvelope(
            job_id=state.job_id,
            shard_index=state.job.shard_index,
            n_shards=state.job.n_shards,
            attempt=state.attempt,
        )
        handle.ready = False
        state.worker_id = handle.worker_id
        state.deadline = time.monotonic() + self.live.stall_after_s
        self._attempts += 1
        try:
            handle.conn.send((envelope, state.job))
        except OSError:
            self._lose(handle)

    def _requeue(self, state: _ShardState, reason: str) -> None:
        """Queue one undone shard again with the next attempt number."""
        if state.done:
            return
        if state.attempt + 1 >= self.max_attempts:
            raise DistError(
                f"shard {state.job.shard_index} failed after "
                f"{state.attempt + 1} attempt(s): {reason}")
        state.attempt += 1
        state.worker_id = ""
        state.deadline = float("inf")
        self._requeues += 1
        _log.warning("re-dispatching shard %d (attempt %d): %s",
                     state.job.shard_index, state.attempt, reason)
        self._queue.append(state.job.shard_index)

    def _spawn_worker(self) -> None:
        import multiprocessing

        from .worker import worker_main

        worker_id = f"w{self._worker_seq}"
        self._worker_seq += 1
        conn, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=worker_main,
            args=(child, worker_id),
            kwargs={"peer": conn, "trace": self.trace,
                    # The worker rewires beats onto its own pipe.
                    "live": self.plane.worker_setup(BeatTransport()),
                    "chaos": self.chaos},
            name=f"repro-dist-{worker_id}",
            daemon=True,
        )
        process.start()
        child.close()
        self._handles[worker_id] = _WorkerHandle(
            worker_id=worker_id, process=process, conn=conn)
        self._spawned += 1

    # -- waiting ------------------------------------------------------

    def _wait_once(self) -> None:
        """Block until a worker speaks or dies, or the next lease ends."""
        deadline = min((s.deadline for s in self._shards.values()
                        if not s.done), default=float("inf"))
        timeout = (None if deadline == float("inf")
                   else max(0.0, deadline - time.monotonic()))
        watched: list[Connection | int] = []
        owner: dict[object, _WorkerHandle] = {}
        for handle in self._handles.values():
            if not handle.lost:
                watched += [handle.conn, handle.process.sentinel]
                owner[handle.conn] = owner[handle.process.sentinel] = handle
        for ready in wait(watched, timeout):
            handle = owner[ready]
            if handle.lost:
                continue  # lost earlier in this batch
            if ready is not handle.conn:
                self._lose(handle)          # the process sentinel fired
                continue
            try:
                message, payload = handle.conn.recv()
            except (EOFError, OSError):
                self._lose(handle)
            else:
                self._handle(handle, message, payload)

    def _check_leases(self) -> None:
        """Terminate the holder of every shard whose lease ran out."""
        now = time.monotonic()
        for state in self._shards.values():
            if state.done or now < state.deadline:
                continue
            handle = self._handles[state.worker_id]
            state.deadline = float("inf")
            self._stall_steals += 1
            handle.expired = (f"lease expired: no message for shard "
                              f"{state.job.shard_index} within "
                              f"{self.live.stall_after_s:.1f}s")
            _log.warning("terminating worker %s: %s", handle.worker_id,
                         handle.expired)
            handle.process.terminate()

    # -- messages -----------------------------------------------------

    def _handle(self, handle: _WorkerHandle, message: object,
                payload: object) -> None:
        if isinstance(message, ShardBeat):
            self._on_beat(handle, message)
        elif isinstance(message, WorkerReady):
            if message.protocol != PROTOCOL_VERSION:
                raise DistError(
                    f"worker {message.worker_id} speaks protocol "
                    f"{message.protocol}, coordinator speaks "
                    f"{PROTOCOL_VERSION}")
            handle.ready = handle.greeted = True
        elif isinstance(message, JobNack):
            self._nacks += 1
            state = self._shards.get(message.shard_index)
            if state is None or state.done or \
                    message.attempt != state.attempt:
                return  # a superseded attempt's nack
            self._requeue(state, f"worker {message.worker_id} nacked: "
                                 f"{message.reason}")
        elif isinstance(message, ResultEnvelope):
            self._handle_result(message, payload)

    def _on_beat(self, handle: _WorkerHandle, beat: ShardBeat) -> None:
        """Feed the plane and renew the holder's lease."""
        self.plane.ingest(beat)
        state = self._shards.get(beat.shard_index)
        if state is not None and not state.done and \
                state.worker_id == handle.worker_id and not handle.expired:
            state.deadline = time.monotonic() + self.live.stall_after_s

    def _handle_result(self, message: ResultEnvelope,
                       payload: object) -> None:
        from repro.runner import ShardResult

        state = self._shards.get(message.shard_index)
        if state is None:
            return
        if state.done:
            # A chaos duplicate, or a superseded attempt that delivered
            # late: pure-function shards make the copy bit-identical,
            # so dropping it is free.
            self._duplicates += 1
            _log.info("discarding duplicate result for shard %d "
                      "(attempt %d from %s)", message.shard_index,
                      message.attempt, message.worker_id)
            return
        if not isinstance(payload, ShardResult):
            if message.attempt == state.attempt:
                self._requeue(state, f"worker {message.worker_id} "
                                     f"delivered a malformed result "
                                     f"payload ({type(payload).__name__})")
            return
        state.done = True
        state.worker_id = ""
        state.deadline = float("inf")
        self._results[message.shard_index] = payload

    # -- worker loss --------------------------------------------------

    def _lose(self, handle: _WorkerHandle) -> None:
        """Requeue what a dead worker held and spawn its replacement."""
        if handle.lost:
            return
        handle.lost = True
        # What it sent before dying still counts (a result, a nack).
        while True:
            try:
                if not handle.conn.poll():
                    break
                message, payload = handle.conn.recv()
            except (EOFError, OSError):
                break
            self._handle(handle, message, payload)
        handle.conn.close()
        handle.process.join(timeout=_JOIN_TIMEOUT_S)
        self._lost += 1
        code = handle.process.exitcode
        _log.warning("worker %s exited (code %s)", handle.worker_id, code)
        if not handle.greeted:
            raise DistError(f"worker {handle.worker_id} exited (code "
                            f"{code}) before reporting ready")
        for state in self._shards.values():
            if state.done or state.worker_id != handle.worker_id:
                continue
            self._write_lost_postmortem(state, handle)
            self._requeue(state, handle.expired or
                          f"worker {handle.worker_id} lost (exit code "
                          f"{code}) holding attempt {state.attempt}")
        if len(self._results) < len(self._shards):
            self._spawn_worker()

    def _write_lost_postmortem(self, state: _ShardState,
                               handle: _WorkerHandle) -> None:
        """``stall`` when the coordinator expired the lease, else ``lost``."""
        view = self.plane.view(state.job.shard_index)
        postmortem = Postmortem(
            kind="stall" if handle.expired else "lost",
            shard_index=state.job.shard_index,
            n_shards=state.job.n_shards,
            system=state.job.mode,
            backend=state.job.backend,
            reason=(f"worker {handle.worker_id} exited (code "
                    f"{handle.process.exitcode}) holding shard "
                    f"{state.job.shard_index} attempt {state.attempt}"
                    f"{'; ' + handle.expired if handle.expired else ''}; "
                    "re-dispatching"),
            last_beat=(view.last_beat.to_jsonable()
                       if view.last_beat is not None else None),
        )
        path = postmortem.write_to(self.plane.postmortem_dir)
        if path not in self.postmortems:
            self.postmortems.append(path)
        _log.warning("postmortem written: %s (inspect with "
                     "'adprefetch obs postmortem show %s')", path, path)

    # -- teardown -----------------------------------------------------

    def _shutdown(self) -> None:
        # Read each busy worker's farewell traffic up to its
        # WorkerReady, so duplicate accounting is complete. Pure
        # bookkeeping — a teardown drain must never raise.
        until = time.monotonic() + _JOIN_TIMEOUT_S
        for handle in self._handles.values():
            while not handle.lost and not handle.ready:
                try:
                    if not handle.conn.poll(max(0.0,
                                                until - time.monotonic())):
                        break
                    message, _ = handle.conn.recv()
                except (EOFError, OSError):
                    break
                if isinstance(message, WorkerReady):
                    handle.ready = True
                elif isinstance(message, ResultEnvelope):
                    state = self._shards.get(message.shard_index)
                    if state is not None and state.done:
                        self._duplicates += 1
        # A worker exits when its pipe closes.
        for handle in self._handles.values():
            handle.conn.close()
        for handle in self._handles.values():
            handle.process.join(timeout=_JOIN_TIMEOUT_S)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self.plane.finish()
