"""The coordinator/worker wire contract.

Every control message that crosses a worker's pipe is one of the
frozen keyword-only dataclasses below, each carrying plain scalar
fields only — so a message both pickles across a
``multiprocessing.Pipe`` *and* round-trips through JSON
(:meth:`to_jsonable` / :func:`message_from_jsonable`), which is what a
socket/multi-host link needs. The messages sit inside the repro-lint
RPR007 serialization closure next to
:class:`~repro.experiments.harness.ShardJob`: no callables, handles,
locks, or lambda defaults may ever creep into their fields.

Every pipe item is an ``(envelope, payload)`` pair. Payloads (the
:class:`~repro.experiments.harness.ShardJob` a job carries, the
:class:`~repro.runner.ShardResult` a result delivers) deliberately
ride *beside* the envelope, not inside it: the envelope is the
routable header — small, versioned, JSON-clean — and the payload is
whatever the link's serializer (pickle today) moves. A multi-host link
swaps the payload codec without touching the protocol.

One record from outside this module shares the pipe: the shard
heartbeat, a frozen :class:`~repro.obs.live.ShardBeat` sent with
payload ``None``. It is in the RPR007 closure too and round-trips
through its own ``to_jsonable``/``from_jsonable``.

Wire compatibility is versioned by :data:`PROTOCOL_VERSION`, stamped
into every :class:`WorkerReady`; the coordinator rejects a worker whose
protocol differs rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

#: Wire-format version; bump on any message shape change (3: one pipe
#: per worker, ``WorkerReady`` replaces hello/ack/idle beat).
PROTOCOL_VERSION = 3

#: ``type`` tag → message class (filled by ``_register``).
MESSAGE_TYPES: dict[str, type] = {}


def _register(cls: type) -> type:
    MESSAGE_TYPES[cls.__name__] = cls
    return cls


class _Jsonable:
    """Shared JSON round-trip for the flat scalar message dataclasses."""

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON form, tagged with the message ``type``."""
        payload: dict[str, object] = {"type": type(self).__name__}
        for spec in fields(self):  # type: ignore[arg-type]
            payload[spec.name] = getattr(self, spec.name)
        return payload

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "_Jsonable":
        """Inverse of :meth:`to_jsonable`; one-line errors on junk."""
        tag = payload.get("type", cls.__name__)
        if tag != cls.__name__:
            raise ValueError(
                f"message type {tag!r} is not a {cls.__name__}")
        known = {spec.name for spec in fields(cls)}  # type: ignore[arg-type]
        unknown = sorted(set(payload) - known - {"type"})
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s): {unknown}")
        kwargs = {key: value for key, value in payload.items()
                  if key != "type"}
        return cls(**kwargs)  # type: ignore[arg-type]


@_register
@dataclass(frozen=True, slots=True, kw_only=True)
class WorkerReady(_Jsonable):
    """The worker is idle and will read its next job.

    Sent once at start (identity + wire version) and again after the
    last send for each job. Between this message and its next job a
    worker writes nothing, so the coordinator may block sending a job
    larger than the pipe buffer without either side deadlocking.
    """

    worker_id: str
    pid: int = 0
    protocol: int = PROTOCOL_VERSION


@_register
@dataclass(frozen=True, slots=True, kw_only=True)
class JobEnvelope(_Jsonable):
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


@_register
@dataclass(frozen=True, slots=True, kw_only=True)
class JobNack(_Jsonable):
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


@_register
@dataclass(frozen=True, slots=True, kw_only=True)
class ResultEnvelope(_Jsonable):
    """A completed job's header; the ShardResult payload rides beside.

    ``ok`` is redundant with the presence of a payload today but keeps
    the header self-describing for links whose payload channel is
    separate (a multi-host backend shipping results out of band).
    """

    worker_id: str
    job_id: str
    shard_index: int
    attempt: int
    ok: bool = True
    elapsed_s: float = 0.0


def message_from_jsonable(payload: Mapping[str, object]) -> object:
    """Decode any protocol message from its tagged plain-JSON form."""
    tag = payload.get("type")
    cls = MESSAGE_TYPES.get(str(tag))
    if cls is None:
        raise ValueError(
            f"unknown dist protocol message type {tag!r} "
            f"(expected one of {sorted(MESSAGE_TYPES)})")
    return cls.from_jsonable(payload)  # type: ignore[attr-defined]
