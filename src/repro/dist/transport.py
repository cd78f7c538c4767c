"""Transports: where job and control envelopes travel.

The coordinator sees a :class:`Transport` (offer jobs, collect control
traffic); each worker sees the picklable :class:`WorkerEndpoint` the
transport hands out (claim jobs, send control messages). Every item on
the wire is an ``(envelope, payload)`` pair: the envelope is one of the
JSON-round-trippable :mod:`~repro.dist.protocol` messages, the payload
is the serialized job or result body (pickle on the queue backend),
or ``None`` for pure control messages and shard heartbeats.

Backends
--------
:class:`ManagerTransport` — the in-tree backend: two
``multiprocessing.Manager`` queues (jobs down, control up) whose
proxies pickle across the process boundary. Work-stealing falls out of
the shared jobs queue: a requeued lease is claimed by whichever worker
is idle first.

The socket seam
---------------
A multi-host backend implements the same four methods with envelopes
as JSON lines (they already round-trip via ``to_jsonable`` /
``message_from_jsonable``) and payloads as length-prefixed blobs; the
coordinator and worker loops never touch queue types directly, so the
swap is a constructor argument — ``Coordinator(...,
transport=SocketTransport(...))`` — not a redesign. Keep any new
backend's :meth:`WorkerEndpoint.claim` a *blocking-with-timeout* call:
both loops are written against that contract.
"""

from __future__ import annotations

import queue as queue_mod
from abc import ABC, abstractmethod
from typing import Any

from .protocol import JobEnvelope

#: Sentinel offered once per worker at shutdown to end its claim loop.
STOP = "stop"


class WorkerEndpoint(ABC):
    """A worker's picklable handle onto the transport."""

    @abstractmethod
    def claim(self, timeout_s: float) -> tuple[Any, Any] | None:
        """Next ``(envelope, payload)`` job pair, or ``None`` on timeout.

        The envelope is a :class:`~repro.dist.protocol.JobEnvelope`, or
        the :data:`STOP` sentinel telling this worker to exit its loop.
        """

    @abstractmethod
    def send(self, message: object, payload: object = None) -> None:
        """Deliver one control message (+ optional payload) upstream."""


class Transport(ABC):
    """The coordinator's side of the channel."""

    @abstractmethod
    def offer(self, envelope: JobEnvelope, task: object) -> None:
        """Make one job claimable by any worker."""

    @abstractmethod
    def offer_stop(self) -> None:
        """Enqueue one :data:`STOP` sentinel (one per worker to stop)."""

    @abstractmethod
    def collect(self, timeout_s: float) -> tuple[Any, Any] | None:
        """Next upstream ``(message, payload)`` pair, or ``None``."""

    @abstractmethod
    def worker_endpoint(self) -> WorkerEndpoint:
        """A picklable endpoint to ship into a worker process."""

    def close(self) -> None:
        """Tear the channel down (base class: nothing to do)."""


class QueueWorkerEndpoint(WorkerEndpoint):
    """Endpoint over two ``multiprocessing.Manager`` queue proxies.

    Send failures are swallowed: if the coordinator is gone, a
    worker's farewell traffic (and its shard beats, which use this
    same ``send``) must not turn into a crash loop.
    """

    def __init__(self, jobs: Any, control: Any) -> None:
        self._jobs = jobs
        self._control = control

    def claim(self, timeout_s: float) -> tuple[Any, Any] | None:
        try:
            item = self._jobs.get(timeout=max(0.0, timeout_s))
        except (queue_mod.Empty, OSError, EOFError, BrokenPipeError):
            return None
        return item  # type: ignore[no-any-return]

    def send(self, message: object, payload: object = None) -> None:
        try:
            self._control.put((message, payload))
        except (OSError, ValueError, EOFError, BrokenPipeError):
            pass  # coordinator gone: nothing useful left to say


class ManagerTransport(Transport):
    """Single-host backend over a ``multiprocessing.Manager``.

    The manager process owns both queues, so they survive any worker's
    death — including a chaos ``os._exit`` mid-protocol — and the
    queue proxies pickle into spawned worker processes.
    """

    def __init__(self) -> None:
        import multiprocessing

        self._manager = multiprocessing.Manager()
        self._jobs = self._manager.Queue()
        self._control = self._manager.Queue()

    def offer(self, envelope: JobEnvelope, task: object) -> None:
        self._jobs.put((envelope, task))

    def offer_stop(self) -> None:
        self._jobs.put((STOP, None))

    def collect(self, timeout_s: float) -> tuple[Any, Any] | None:
        try:
            if timeout_s > 0:
                item = self._control.get(timeout=timeout_s)
            else:
                item = self._control.get_nowait()
        except (queue_mod.Empty, OSError, EOFError, BrokenPipeError):
            return None
        return item  # type: ignore[no-any-return]

    def worker_endpoint(self) -> QueueWorkerEndpoint:
        return QueueWorkerEndpoint(self._jobs, self._control)

    def close(self) -> None:
        shutdown = getattr(self._manager, "shutdown", None)
        if shutdown is not None:
            shutdown()
