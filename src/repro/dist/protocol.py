"""The coordinator/worker wire contract.

Every control message that crosses a worker's pipe is one of the
frozen keyword-only dataclasses below, each carrying plain scalar
fields only, and travels pickled over the worker's
``multiprocessing.Pipe``; nothing encodes a message any other way.
``tests/test_shard_boundary_pickle.py`` round-trips each message, next
to :class:`~repro.experiments.harness.ShardJob`, through pickle and
checks its frozen/keyword-only contract.

Every pipe item is an ``(envelope, payload)`` pair. Payloads (the
:class:`~repro.experiments.harness.ShardJob` a job carries, the
:class:`~repro.runner.ShardResult` a result delivers) ride *beside*
the envelope, not inside it: the envelope is the small routable
header the coordinator dispatches on, and the payload is the work or
its result.

One record from outside this module shares the pipe: the shard
heartbeat, a frozen :class:`~repro.obs.live.ShardBeat` sent with
payload ``None``. The same test round-trips it too.

Wire compatibility is versioned by :data:`PROTOCOL_VERSION`, stamped
into every :class:`WorkerReady`; the coordinator rejects a worker whose
protocol differs rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Wire-format version; bump on any message shape change (3: one pipe
#: per worker, ``WorkerReady`` replaces hello/ack/idle beat; 4:
#: ``ResultEnvelope`` loses ``ok``).
PROTOCOL_VERSION = 4


@dataclass(frozen=True, slots=True, kw_only=True)
class WorkerReady:
    """The worker is idle and will read its next job.

    Sent once at start (identity + wire version) and again after the
    last send for each job. Between this message and its next job a
    worker writes nothing, so the coordinator may block sending a job
    larger than the pipe buffer without either side deadlocking.
    """

    worker_id: str
    pid: int = 0
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True, slots=True, kw_only=True)
class JobEnvelope:
    """The routable header of one dispatched shard job.

    ``job_id`` names the shard (stable across attempts); ``attempt``
    counts dispatches of that shard, so a re-dispatch after a lost
    worker or an expired lease is distinguishable from the original on
    the wire.
    """

    job_id: str
    shard_index: int
    n_shards: int
    attempt: int = 0


@dataclass(frozen=True, slots=True, kw_only=True)
class JobNack:
    """A worker gave a job back: the shard raised (reason says why).

    A nack is an *orderly* failure — the worker survives and reports
    ready again. Worker loss has no message at all; the coordinator
    infers it from process death, pipe EOF, or an expired lease.
    """

    worker_id: str
    job_id: str
    shard_index: int
    attempt: int
    reason: str = ""


@dataclass(frozen=True, slots=True, kw_only=True)
class ResultEnvelope:
    """A completed job's header; the ShardResult payload rides beside."""

    worker_id: str
    job_id: str
    shard_index: int
    attempt: int
    elapsed_s: float = 0.0

