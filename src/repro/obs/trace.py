"""Sim-time structured tracing.

Spans and instant events are stamped with **simulated** time (the
engine clock / epoch clock the components already thread around), never
the wall clock, so the recorded trace is itself deterministic: the same
config and seed produce the same byte-for-byte trace at any
parallelism. Wall-clock timing lives in :mod:`repro.obs.profile`
instead.

Two recorders ship:

* :class:`NullRecorder` — the default; every method is an inherited
  no-op and ``enabled`` is ``False`` so hot paths can skip building
  event payloads entirely (the zero-overhead fast path).
* :class:`MemoryRecorder` — appends :class:`TraceEvent` values to a
  list, later exported as JSONL (one event per line, sorted keys) or as
  Chrome ``trace_event`` JSON that loads directly in Perfetto /
  ``chrome://tracing`` (shards map to processes, components to
  threads).

Event vocabulary (DESIGN.md §8): ``phase`` is ``"X"`` (a complete span
with a duration) or ``"I"`` (an instant); ``component`` matches the
instrument-name component (``engine``, ``client``, ``server``,
``exchange``, ``realtime``); ``name`` is the event within it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .fields import check_object

#: Trace schema version written into every JSONL header row.
TRACE_SCHEMA_VERSION = 1

#: Valid event phases: complete span / instant.
PHASES = ("X", "I")

#: The first row of every JSONL trace.
_HEADER = {"schema": "repro.obs.trace", "version": TRACE_SCHEMA_VERSION}

#: Seconds → Chrome trace_event microseconds.
_US = 1e6


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record, stamped with simulated time."""

    ts: float                 # simulated seconds
    phase: str                # "X" (span) or "I" (instant)
    component: str            # e.g. "server", "client", "exchange"
    name: str                 # event within the component
    dur: float = 0.0          # span duration in simulated seconds
    shard: int = 0            # originating shard index
    args: dict[str, object] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON row (the JSONL line payload)."""
        return {
            "ts": self.ts,
            "ph": self.phase,
            "comp": self.component,
            "name": self.name,
            "dur": self.dur,
            "shard": self.shard,
            "args": self.args,
        }


class TraceRecorder:
    """No-op base recorder (the ``NullRecorder`` behaviour).

    ``enabled`` is ``False``; hot paths are expected to guard payload
    construction with it::

        if recorder.enabled:
            recorder.instant(now, "server", "rescue", {"n": len(picked)})

    so a run with the default recorder allocates nothing per event.
    """

    enabled: bool = False

    def instant(self, ts: float, component: str, name: str,
                args: dict[str, object] | None = None) -> None:
        """Record an instant event at simulated time ``ts`` (no-op)."""

    def complete(self, ts: float, dur: float, component: str, name: str,
                 args: dict[str, object] | None = None) -> None:
        """Record a span ``[ts, ts+dur)`` in simulated time (no-op)."""

    def events(self) -> list[TraceEvent]:
        """Recorded events (always empty for the null recorder)."""
        return []


class NullRecorder(TraceRecorder):
    """The explicit zero-overhead recorder (inherits every no-op)."""


#: Shared default instance: stateless, safe to reuse everywhere.
NULL_RECORDER = NullRecorder()


class MemoryRecorder(TraceRecorder):
    """In-memory recorder; one per shard, merged by the Runner.

    Events are kept in record order, which is deterministic because
    each shard's simulation is deterministic.
    """

    enabled = True

    def __init__(self, shard: int = 0) -> None:
        self.shard = int(shard)
        self._events: list[TraceEvent] = []

    def instant(self, ts: float, component: str, name: str,
                args: dict[str, object] | None = None) -> None:
        """Record an instant event at simulated time ``ts``."""
        self._events.append(TraceEvent(
            ts=float(ts), phase="I", component=component, name=name,
            shard=self.shard, args=args if args is not None else {}))

    def complete(self, ts: float, dur: float, component: str, name: str,
                 args: dict[str, object] | None = None) -> None:
        """Record a complete span starting at ``ts`` lasting ``dur``."""
        self._events.append(TraceEvent(
            ts=float(ts), phase="X", component=component, name=name,
            dur=float(dur), shard=self.shard,
            args=args if args is not None else {}))

    def events(self) -> list[TraceEvent]:
        """The recorded events, in record order."""
        return list(self._events)


# ----------------------------------------------------------------------
# JSONL export / import / validation
# ----------------------------------------------------------------------


def write_jsonl(events: Sequence[TraceEvent], path: str | Path) -> int:
    """Write ``events`` as JSONL (header row + one event per line).

    Returns the number of event rows written. Keys are sorted so the
    file is byte-stable for identical event streams.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(_HEADER, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event.to_jsonable(), sort_keys=True) + "\n")
    return len(events)


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Load a JSONL trace written by :func:`write_jsonl`.

    Raises a one-line ``ValueError`` naming the line and the key of the
    first row that fails the schema (see :func:`validate_jsonl`).
    """
    events, problems = _scan(path)
    if problems:
        raise ValueError(problems[0])
    return events


def validate_jsonl(path: str | Path) -> list[str]:
    """Validate a JSONL trace file: one problem per bad row (empty = ok).

    The first line must be the schema header; every other line must be
    an event row with exactly ``ts``/``ph``/``comp``/``name``/``dur``/
    ``shard``/``args`` of their JSON kinds, ``ph`` in ``("X", "I")``,
    non-negative ``ts``/``dur``/``shard`` and non-empty ``comp``/``name``.
    """
    try:
        return _scan(path)[1]
    except OSError as exc:
        return [f"{path}: unreadable trace: {exc}"]


#: An event row's keys → their JSON kinds (see :mod:`.fields`).
_ROW_SCHEMA = {"ts": "number", "ph": "str", "comp": "str", "name": "str",
               "dur": "number", "shard": "int", "args": "object"}


def _scan(path: str | Path) -> tuple[list[TraceEvent], list[str]]:
    """The events of trace file ``path`` and one problem per bad row."""
    with Path(path).open("r", encoding="utf-8") as fh:
        lines = [(number, line) for number, line in enumerate(fh, 1)
                 if line.strip()]
    if not lines:
        return [], [f"{path}: empty trace file (missing schema header)"]
    events: list[TraceEvent] = []
    problems: list[str] = []
    for index, (number, line) in enumerate(lines):
        try:
            row = json.loads(line)
            if index == 0:
                _check_header(row)
            else:
                events.append(_event(row))
        except json.JSONDecodeError as exc:
            problems.append(f"{path}: line {number}: not valid JSON ({exc})")
        except ValueError as exc:
            problems.append(f"{path}: line {number}: {exc}")
    return events, problems


def _check_header(row: object) -> None:
    try:
        header = check_object(row, {"schema": "str", "version": "int"},
                              "the header")
    except ValueError as exc:
        raise ValueError(f"not the repro.obs.trace header ({exc})") from None
    if header != _HEADER:
        raise ValueError(f"header is {json.dumps(header, sort_keys=True)}, "
                         f"expected {json.dumps(_HEADER, sort_keys=True)}")


def _event(row: object) -> TraceEvent:
    """The :class:`TraceEvent` of one checked row (``ValueError``)."""
    checked = check_object(row, _ROW_SCHEMA, "the row")
    if checked["ph"] not in PHASES:
        raise ValueError(f"key 'ph' must be one of {PHASES}, "
                         f"got {checked['ph']!r}")
    for key in ("ts", "dur", "shard"):
        if checked[key] < 0:
            raise ValueError(f"key {key!r} must be non-negative, "
                             f"got {checked[key]!r}")
    for key in ("comp", "name"):
        if not checked[key]:
            raise ValueError(f"key {key!r} must be a non-empty string")
    return TraceEvent(ts=float(checked["ts"]), phase=checked["ph"],
                      component=checked["comp"], name=checked["name"],
                      dur=float(checked["dur"]), shard=checked["shard"],
                      args=checked["args"])


# ----------------------------------------------------------------------
# Chrome trace_event export (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------


def to_chrome(events: Sequence[TraceEvent]) -> dict[str, object]:
    """Convert events to the Chrome ``trace_event`` JSON object format.

    Shards become processes (``pid``) and components become threads
    (``tid``) so Perfetto's timeline groups spans the way the system is
    sharded. Sim-time seconds map to trace microseconds.
    """
    components = sorted({e.component for e in events})
    tid_of = {component: index + 1
              for index, component in enumerate(components)}
    shards = sorted({e.shard for e in events})
    trace_events: list[dict[str, object]] = []
    for shard in shards:
        trace_events.append({
            "ph": "M", "pid": shard, "tid": 0, "name": "process_name",
            "args": {"name": f"shard {shard}"},
        })
        for component in components:
            trace_events.append({
                "ph": "M", "pid": shard, "tid": tid_of[component],
                "name": "thread_name", "args": {"name": component},
            })
    for event in events:
        row: dict[str, object] = {
            "name": event.name,
            "cat": event.component,
            "pid": event.shard,
            "tid": tid_of[event.component],
            "ts": event.ts * _US,
            "args": dict(event.args),
        }
        if event.phase == "X":
            row["ph"] = "X"
            row["dur"] = event.dur * _US
        else:
            row["ph"] = "i"
            row["s"] = "t"
        trace_events.append(row)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.trace",
                      "clock": "simulated-time"},
    }


def write_chrome(events: Sequence[TraceEvent], path: str | Path) -> None:
    """Write the Chrome ``trace_event`` export of ``events`` to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(to_chrome(events), indent=2,
                                 sort_keys=True) + "\n", encoding="utf-8")
