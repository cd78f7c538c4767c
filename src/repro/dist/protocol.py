"""The coordinator/worker wire contract.

Every control message that crosses the transport is one of the frozen
keyword-only dataclasses below, each carrying plain scalar fields only
— so a message both pickles across a ``multiprocessing`` queue *and*
round-trips through JSON (:meth:`to_jsonable` / :func:`message_from_
jsonable`), which is what a future socket/multi-host transport needs.
The messages sit inside the repro-lint RPR007 serialization closure
next to :class:`~repro.experiments.harness.ShardJob`: no callables,
handles, locks, or lambda defaults may ever creep into their fields.

Payloads (the :class:`~repro.experiments.harness.ShardJob` a job
carries, the :class:`~repro.runner.ShardResult` a result delivers)
deliberately ride *beside* the envelope as a transport-level pair, not
inside it: the envelope is the routable header — small, versioned,
JSON-clean — and the payload is whatever the transport's serializer
(pickle today) moves. A multi-host transport swaps the payload codec
without touching the protocol.

One record from outside this module shares the control channel: the
shard heartbeat, a frozen :class:`~repro.obs.live.ShardBeat` sent with
payload ``None``. It is in the RPR007 closure too and round-trips
through its own ``to_jsonable``/``from_jsonable``.

Wire compatibility is versioned by :data:`PROTOCOL_VERSION`, stamped
into every :class:`WorkerHello`; the coordinator rejects a worker whose
protocol differs rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

#: Wire-format version; bump on any message shape change (2: shard
#: heartbeats joined the control channel).
PROTOCOL_VERSION = 2

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
class WorkerHello(_Jsonable):
    """First message a worker sends: identity + wire version."""

    worker_id: str
    pid: int = 0
    protocol: int = PROTOCOL_VERSION


@_register
@dataclass(frozen=True, slots=True, kw_only=True)
class WorkerBeat(_Jsonable):
    """Worker-level liveness (distinct from per-shard ShardBeats).

    Sent when a worker is idle between claims, so the coordinator can
    tell "alive but starved" from "gone" even when no shard is
    executing on it.
    """

    worker_id: str
    busy: bool = False
    job_id: str = ""
    jobs_done: int = 0


@_register
@dataclass(frozen=True, slots=True, kw_only=True)
class JobEnvelope(_Jsonable):
    """The routable header of one dispatched shard job.

    ``job_id`` names the shard (stable across attempts); ``attempt``
    counts dispatches of that shard, so a stolen lease's re-dispatch is
    distinguishable from the original on the wire. ``lease_s`` is the
    coordinator's promise window: a claimed job with no result and no
    heartbeat for that long is requeued for any other worker to steal.
    """

    job_id: str
    shard_index: int
    n_shards: int
    attempt: int = 0
    lease_s: float = 120.0


@_register
@dataclass(frozen=True, slots=True, kw_only=True)
class JobAck(_Jsonable):
    """A worker claimed a job: the lease now has an owner and a clock."""

    worker_id: str
    job_id: str
    shard_index: int
    attempt: int


@_register
@dataclass(frozen=True, slots=True, kw_only=True)
class JobNack(_Jsonable):
    """A worker gave a job back: the shard raised (reason says why).

    A nack is an *orderly* failure — the worker survives and keeps
    claiming. Worker loss has no message at all; the coordinator infers
    it from heartbeat silence and process death.
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
    the header self-describing for transports whose payload channel is
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
