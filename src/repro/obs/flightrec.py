"""Per-shard flight recorder: a black box for crashed or lost shards.

:class:`RingRecorder` wraps any :class:`~repro.obs.trace.TraceRecorder`
and keeps a bounded ring of the most recent trace events — including
fault injections, which the injector emits as ``("faults", ...)``
instants through the same recorder. In normal runs the ring is simply
dropped at shard exit; it is serialized into a ``crash``
:class:`Postmortem` file **only** when a shard raises, by the shard's
own process. That gives E13-style fault runs what an aircraft accident
investigation gets: the last N seconds of telemetry before the event,
at O(ring) memory no matter how long the run was. The
:mod:`repro.dist` coordinator writes the other two kinds, ``lost`` and
``stall``, from the last beat it saw (the ring died with the worker).

Like the rest of the trace layer this module is clock-free and
observation-only: wrapping the recorder in a ring never changes what
the simulation computes, only what survives a crash. Postmortem files
are plain versioned JSON, inspected with
``adprefetch obs postmortem show <path>``.

See DESIGN.md §12 for the file format and the capture policy.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .fields import check_object, load_object
from .trace import TraceEvent, TraceRecorder

#: Schema version stamped into every postmortem file.
POSTMORTEM_SCHEMA_VERSION = 1

#: Ring capacity (events) of every live shard's flight recorder.
DEFAULT_RING_SIZE = 256

#: The postmortem kinds: a shard's own ``crash``; the coordinator's
#: ``stall`` (lease expired) and ``lost`` (worker died).
POSTMORTEM_KINDS = ("crash", "stall", "lost")

#: A postmortem file's keys → their JSON kinds (see :mod:`.fields`).
_POSTMORTEM_SCHEMA = {
    "schema": "str", "version": "int", "kind": "str", "shard_index": "int",
    "n_shards": "int", "system": "str", "backend": "str", "reason": "str",
    "traceback": "str", "last_beat": "object?", "ring_events": "[object]",
    "ring_dropped": "int", "counters": "{number}",
}


class RingRecorder(TraceRecorder):
    """A recorder that tees every event into a bounded ring.

    Always ``enabled`` (the ring is the point), but it forwards to the
    wrapped ``inner`` recorder only when *that* recorder is enabled —
    so a live run without ``--trace`` keeps full-trace memory at zero
    while still buffering the last ``capacity`` events for a
    postmortem. :meth:`events` returns the inner recorder's view,
    preserving exact trace semantics for the Runner's shard merge.
    """

    enabled = True

    def __init__(self, inner: TraceRecorder, *, shard: int = 0,
                 capacity: int = DEFAULT_RING_SIZE) -> None:
        self.inner = inner
        self.shard = int(shard)
        self.capacity = max(1, int(capacity))
        self._ring: deque[TraceEvent] = deque(maxlen=self.capacity)
        self._seen = 0

    def instant(self, ts: float, component: str, name: str,
                args: dict[str, object] | None = None) -> None:
        """Record an instant event at simulated time ``ts``."""
        self._ring.append(TraceEvent(
            ts=float(ts), phase="I", component=component, name=name,
            shard=self.shard, args=args if args is not None else {}))
        self._seen += 1
        if self.inner.enabled:
            self.inner.instant(ts, component, name, args)

    def complete(self, ts: float, dur: float, component: str, name: str,
                 args: dict[str, object] | None = None) -> None:
        """Record a complete span starting at ``ts`` lasting ``dur``."""
        self._ring.append(TraceEvent(
            ts=float(ts), phase="X", component=component, name=name,
            dur=float(dur), shard=self.shard,
            args=args if args is not None else {}))
        self._seen += 1
        if self.inner.enabled:
            self.inner.complete(ts, dur, component, name, args)

    def events(self) -> list[TraceEvent]:
        """The *inner* recorder's events (full-trace semantics)."""
        return self.inner.events()

    def ring(self) -> list[TraceEvent]:
        """The buffered tail, oldest first."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        """Events that fell off the ring (total seen minus retained)."""
        return self._seen - len(self._ring)


@dataclass(frozen=True, slots=True)
class Postmortem:
    """One shard's black-box record, written at failure time only.

    ``kind`` says why it exists and who wrote it: ``crash`` (the shard
    raised; written by the shard's process, carries the traceback and
    the flight recorder's ring), ``stall`` (the coordinator expired the
    holder's lease and terminated it) or ``lost`` (the holding worker
    died). ``ring_events`` is the flight recorder's tail in jsonable
    trace-row form; ``last_beat`` is the final
    :class:`~repro.obs.live.ShardBeat` the coordinator saw, if any.
    """

    kind: str
    shard_index: int
    n_shards: int
    system: str = ""
    backend: str = ""
    reason: str = ""
    traceback: str = ""
    last_beat: dict[str, object] | None = None
    ring_events: tuple[dict[str, object], ...] = ()
    ring_dropped: int = 0
    counters: dict[str, float] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON form (the postmortem file payload)."""
        return {
            "schema": "repro.obs.postmortem",
            "version": POSTMORTEM_SCHEMA_VERSION,
            "kind": self.kind,
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "system": self.system,
            "backend": self.backend,
            "reason": self.reason,
            "traceback": self.traceback,
            "last_beat": self.last_beat,
            "ring_events": list(self.ring_events),
            "ring_dropped": self.ring_dropped,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "Postmortem":
        """Inverse of :meth:`to_jsonable`; one-line ``ValueError`` on junk.

        The header and ``kind`` are checked first, so a file of another
        kind reads as such; then every key is required with its exact
        JSON type and no other key may appear (:mod:`.fields`).
        """
        schema = payload.get("schema")
        if schema != "repro.obs.postmortem":
            raise ValueError(f"not a postmortem payload (schema={schema!r})")
        version = payload.get("version")
        if version != POSTMORTEM_SCHEMA_VERSION:
            raise ValueError(f"unsupported postmortem version {version!r} "
                             f"(expected {POSTMORTEM_SCHEMA_VERSION})")
        kind = payload.get("kind")
        if kind not in POSTMORTEM_KINDS:
            raise ValueError(f"unknown postmortem kind {kind!r} "
                             f"(expected one of {POSTMORTEM_KINDS})")
        checked = check_object(payload, _POSTMORTEM_SCHEMA, "the postmortem")
        fields = {key: value for key, value in checked.items()
                  if key not in ("schema", "version")}
        fields["ring_events"] = tuple(fields["ring_events"])
        return cls(**fields)

    # -- files --------------------------------------------------------

    def path_in(self, directory: Path) -> Path:
        """Canonical file path for this postmortem under ``directory``."""
        return Path(directory) / postmortem_filename(self.shard_index,
                                                     self.kind)

    def write_to(self, directory: Path) -> Path:
        """Serialize into ``directory`` (created if needed); the path."""
        path = self.path_in(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_jsonable(), indent=2,
                                   sort_keys=False) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Postmortem":
        """Read one postmortem file back (one-line errors on junk)."""
        return load_object(path, cls.from_jsonable)

    # -- human rendering ----------------------------------------------

    def render(self) -> str:
        """Readable multi-line report (``obs postmortem show``)."""
        lines = [
            f"postmortem: shard {self.shard_index}/{self.n_shards} "
            f"[{self.kind}]",
            f"  system:  {self.system or '-'}"
            + (f"  backend: {self.backend}" if self.backend else ""),
            f"  reason:  {self.reason or '-'}",
        ]
        if self.last_beat is not None:
            beat = self.last_beat
            lines.append(
                "  last beat: "
                f"seq={beat.get('seq', '?')} "
                f"watermark={_num(beat.get('watermark_s')):.0f}s "
                f"done={beat.get('done', '?')}/{beat.get('total', '?')} "
                f"events={beat.get('events_done', '?')} "
                f"rss={_num(beat.get('rss_bytes')) / 1e6:.1f}MB")
        else:
            lines.append("  last beat: none seen")
        if self.counters:
            lines.append("  counters at capture:")
            for name in sorted(self.counters):
                lines.append(f"    {name} = {self.counters[name]:g}")
        n = len(self.ring_events)
        suffix = (f" ({self.ring_dropped} older dropped)"
                  if self.ring_dropped else "")
        lines.append(f"  flight recorder: last {n} events{suffix}")
        for row in self.ring_events:
            ts = _num(row.get("ts"))
            comp = row.get("comp", "?")
            name = row.get("name", "?")
            args = row.get("args") or {}
            args_text = (" " + json.dumps(args, sort_keys=True)
                         if args else "")
            lines.append(f"    t={ts:12.1f}s {comp}/{name}{args_text}")
        if self.traceback:
            lines.append("  traceback:")
            for tb_line in self.traceback.rstrip("\n").split("\n"):
                lines.append(f"    {tb_line}")
        return "\n".join(lines)


def capture_shard_crash(*, shard_index: int, n_shards: int,
                        system: str, backend: str,
                        postmortem_dir: Path,
                        exc: BaseException,
                        ring: RingRecorder | None = None,
                        counters: Mapping[str, float] | None = None,
                        ) -> Path | None:
    """Serialize a crashing shard's flight recorder into a postmortem.

    The one shared failure-path writer: the shard entry point
    (:func:`repro.runner.run_shard`) calls it, and both the in-process
    loop and every coordinator worker run shards through that entry
    point — so a crash postmortem is byte-format-identical wherever the
    shard ran, and ``adprefetch obs postmortem show`` renders both the
    same way.

    Best-effort by contract: it runs while the shard's original
    exception is in flight, so a postmortem that cannot be written
    (read-only dir, disk full) returns ``None`` rather than masking
    the real failure.
    """
    import traceback as tb_mod

    from .log import get_logger

    try:
        postmortem = Postmortem(
            kind="crash",
            shard_index=shard_index,
            n_shards=n_shards,
            system=system,
            backend=backend,
            reason=f"shard raised {type(exc).__name__}: {exc}",
            traceback="".join(tb_mod.format_exception(exc)),
            ring_events=tuple(e.to_jsonable() for e in ring.ring())
            if ring is not None else (),
            ring_dropped=ring.dropped if ring is not None else 0,
            counters=dict(counters) if counters is not None else {},
        )
        path = postmortem.write_to(postmortem_dir)
        get_logger("runner").warning(
            "shard %d crashed; postmortem written: %s", shard_index, path)
        return path
    except OSError:
        return None


def postmortem_filename(shard_index: int, kind: str) -> str:
    """Canonical postmortem file name, stable for a (shard, kind)."""
    return f"shard-{shard_index:03d}-{kind}.json"


def list_postmortems(directory: str | Path) -> list[Path]:
    """Postmortem files under ``directory``, sorted by name."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(path for path in root.glob("shard-*-*.json")
                  if path.is_file())


def _num(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0.0
    return float(value)
