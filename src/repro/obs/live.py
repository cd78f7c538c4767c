"""Live telemetry plane: streamed shard heartbeats and their fold.

Everything else in :mod:`repro.obs` is post-hoc — the parent process
learns nothing about a shard until the shard *returns*. This module is
the out-of-band channel that closes that gap without touching the
deterministic side: shard workers periodically publish compact
:class:`ShardBeat` records (sim-time watermark, progress counts,
counter deltas, peak RSS) over a pluggable transport, and the parent's
:class:`LivePlane` folds them, synchronously and on the thread that
delivers them, into a run-wide progress view and an optional terminal
renderer (CLI ``--progress``).

The plane detects nothing. Stalls are the :mod:`repro.dist`
coordinator's beat-renewed lease, and every postmortem is written by
the process that saw the failure: a shard's crash handler writes
``crash``, the coordinator writes ``lost`` and ``stall``.

Hard invariant (tested, CI-smoked): **beats are observation only**.
They read shard-local instruments and never feed anything back into the
simulation, so a run with live telemetry on is bit-identical to the
same run with it off, at any parallelism. Beat *emission timing* is
wall-clock-throttled and therefore nondeterministic — which is fine,
because beats never enter metrics, traces, run records, or the ledger.

Together with :mod:`repro.obs.profile` and :mod:`repro.obs.resources`
this is one of the three modules allowed to read a real clock
(repro-lint RPR001 allowlist): heartbeat pacing and render throttling
are wall-clock territory by definition. The *trace* heartbeat instant
(:func:`shard_heartbeat`) stays sim-time-stamped and deterministic;
only the out-of-band beat stream carries wall-clock pacing.

Transport
---------
A worker publishes beats through a :class:`CallbackTransport`. In the
in-process loop its sink is the plane's ``ingest``; in a
:mod:`repro.dist` worker it sends on the worker's pipe, so beats
travel beside results, and the coordinator feeds them to the plane and
renews the shard's lease with each one.

See DESIGN.md §12 for the full plane architecture and the determinism
argument.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable

from .metrics import MetricsRegistry
from .resources import peak_rss_bytes

#: Default postmortem directory when no artifact dir is configured.
DEFAULT_POSTMORTEM_DIR = Path("obs-runs") / "postmortems"


# ----------------------------------------------------------------------
# The beat record
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardBeat:
    """One out-of-band liveness/progress record from a shard worker.

    ``watermark_s`` is the shard's **sim-time** high-water mark — the
    simulated clock it has executed up to — so the parent can compare
    shard progress on the simulation's own axis. Everything else is
    plain progress accounting. Beats never carry wall-clock stamps;
    the *receiver* stamps arrival with its own clock (cross-process
    monotonic clocks are not comparable).
    """

    shard_index: int
    n_shards: int
    seq: int
    watermark_s: float
    done: int = 0
    total: int = 0
    users: int = 0
    events_done: int = 0
    #: Counter *deltas* since the previous beat (bounded payload).
    counters: dict[str, float] = field(default_factory=dict)
    rss_bytes: int = 0
    final: bool = False
    failed: bool = False

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON form (postmortems embed the last beat)."""
        return {
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "seq": self.seq,
            "watermark_s": self.watermark_s,
            "done": self.done,
            "total": self.total,
            "users": self.users,
            "events_done": self.events_done,
            "counters": dict(self.counters),
            "rss_bytes": self.rss_bytes,
            "final": self.final,
            "failed": self.failed,
        }


@dataclass(frozen=True, slots=True)
class LiveOptions:
    """Knobs for the live telemetry plane (CLI ``--progress`` & co.).

    ``stall_after_s`` is the :mod:`repro.dist` coordinator's lease
    window: a held shard that sends nothing for that long is stolen,
    with a ``stall`` postmortem. ``beat_interval_s`` paces the beats
    that renew the lease (and the progress line), so it must stay below
    the window or healthy shards would lose their leases between beats.
    """

    beat_interval_s: float = 1.0
    stall_after_s: float = 30.0
    progress: bool = False
    postmortem_dir: Path | None = None

    def __post_init__(self) -> None:
        if not self.beat_interval_s > 0:
            raise ValueError(f"beat_interval_s must be positive, got "
                             f"{self.beat_interval_s}")
        if not self.stall_after_s > 0:
            raise ValueError(f"stall_after_s must be positive, got "
                             f"{self.stall_after_s}")
        if self.beat_interval_s >= self.stall_after_s:
            raise ValueError(f"beat_interval_s ({self.beat_interval_s}) "
                             f"must be below stall_after_s "
                             f"({self.stall_after_s})")


# ----------------------------------------------------------------------
# Worker side: transports + emitter
# ----------------------------------------------------------------------


class BeatTransport:
    """Where a worker's beats go. Subclasses define :meth:`publish`."""

    def publish(self, beat: ShardBeat) -> None:
        """Deliver one beat (base class drops it)."""


class CallbackTransport(BeatTransport):
    """Delivers each beat to ``sink``.

    A :mod:`repro.dist` worker builds one around its pipe's send; the
    in-process loop uses a plane's ``ingest``.
    """

    def __init__(self, sink: Callable[[ShardBeat], None]) -> None:
        self._sink = sink

    def publish(self, beat: ShardBeat) -> None:
        self._sink(beat)


class BeatEmitter:
    """Worker-side beat source: wall-clock-throttled, observation-only.

    Call :meth:`beat` as often as convenient (the harness calls it once
    per epoch); the emitter publishes at most one beat per
    ``interval_s`` of wall time, plus forced first/final/failure beats.
    Final and failure beats repeat the progress counts of the last
    beat published before them. Counter payloads are *deltas* against
    the previous published beat, so the channel stays compact no
    matter how long the run is.
    """

    enabled = True

    def __init__(self, transport: BeatTransport, *, shard_index: int,
                 n_shards: int, interval_s: float = 1.0,
                 registry: MetricsRegistry | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._transport = transport
        self.shard_index = int(shard_index)
        self.n_shards = int(n_shards)
        self.interval_s = float(interval_s)
        self._registries: list[MetricsRegistry] = (
            [] if registry is None else [registry])
        self._clock = clock
        self._seq = 0
        self._last_emit = -float("inf")
        self._last_counters: dict[str, float] = {}
        #: ``(done, total, events_done)`` of the last published beat.
        self._progress = (0, 0, 0)

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Add a shard-local registry to the ones counters are read from.

        A headline shard binds two, one per serving half; counter
        deltas are taken against their sum.
        """
        self._registries.append(registry)

    def _counter_deltas(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for registry in self._registries:
            for name, value in registry.snapshot().counters.items():
                totals[name] = totals.get(name, 0) + value
        deltas = {name: value - self._last_counters.get(name, 0.0)
                  for name, value in totals.items()
                  if value != self._last_counters.get(name, 0.0)}
        self._last_counters = totals
        return deltas

    def beat(self, watermark_s: float, *, done: int = 0, total: int = 0,
             users: int = 0, events_done: int = 0, force: bool = False,
             final: bool = False, failed: bool = False) -> ShardBeat | None:
        """Publish a beat if the wall-clock throttle allows (or forced).

        Returns the published beat, or ``None`` when throttled. A final
        or failure beat ignores ``done``/``total``/``events_done`` and
        carries the last published ones. Reads shard state (counters,
        RSS) but never writes any — the hard observation-only invariant.
        """
        now = self._clock()
        if not (force or final or failed):
            if now - self._last_emit < self.interval_s:
                return None
        self._last_emit = now
        if final or failed:
            done, total, events_done = self._progress
        else:
            self._progress = (int(done), int(total), int(events_done))
        beat = ShardBeat(
            shard_index=self.shard_index,
            n_shards=self.n_shards,
            seq=self._seq,
            watermark_s=float(watermark_s),
            done=int(done),
            total=int(total),
            users=int(users),
            events_done=int(events_done),
            counters=self._counter_deltas(),
            rss_bytes=peak_rss_bytes(),
            final=final,
            failed=failed,
        )
        self._seq += 1
        self._transport.publish(beat)
        return beat


class NullBeatEmitter(BeatEmitter):
    """The zero-overhead default: ``enabled`` is ``False``, beats drop.

    Hot paths guard on ``obs.beats.enabled`` exactly like they guard on
    ``recorder.enabled``, so a run without live telemetry builds no
    beat payloads at all.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(BeatTransport(), shard_index=0, n_shards=1)

    def beat(self, watermark_s: float, *, done: int = 0, total: int = 0,
             users: int = 0, events_done: int = 0, force: bool = False,
             final: bool = False, failed: bool = False) -> ShardBeat | None:
        return None


#: Shared default instance: stateless, safe to reuse everywhere.
NULL_EMITTER = NullBeatEmitter()


def shard_heartbeat(obs: object, ts: float, *, component: str, done: int,
                    total: int, users: int, events_done: int) -> None:
    """Emit the per-shard progress heartbeat — the one shared helper.

    Both execution loops (the harness epoch loop and the realtime
    per-user replay, each shared by the event and batched backends)
    call this instead of hand-rolling the instant, so the trace
    vocabulary stays identical across backends and serving modes:
    an ``("shard", "heartbeat")`` instant stamped with **sim time**
    ``ts`` (deterministic, parallelism-invariant), plus — when the live
    plane is active — a wall-clock-throttled out-of-band
    :class:`ShardBeat` with the same progress numbers.

    ``obs`` is the active :class:`repro.obs.runtime.Obs` bundle (typed
    loosely to keep this module import-cycle-free).
    """
    recorder = obs.recorder  # type: ignore[attr-defined]
    if recorder.enabled:
        recorder.instant(ts, "shard", "heartbeat",
                         args={"component": component, "done": done,
                               "total": total, "users": users,
                               "events_done": events_done})
    beats = obs.beats  # type: ignore[attr-defined]
    if beats.enabled:
        beats.beat(ts, done=done, total=total, users=users,
                   events_done=events_done)


# ----------------------------------------------------------------------
# Parent side: the fold of beats
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ShardView:
    """What the parent currently knows about one shard.

    ``done`` and ``failed`` read the latest beat, so a re-dispatched
    attempt's first (forced) beat clears the previous attempt's flags.
    """

    shard_index: int
    last_beat: ShardBeat | None = None
    beats: int = 0

    @property
    def done(self) -> bool:
        return self.last_beat is not None and self.last_beat.final

    @property
    def failed(self) -> bool:
        return self.last_beat is not None and self.last_beat.failed


@dataclass(frozen=True, slots=True)
class LiveSnapshot:
    """Run-wide progress view folded from the beats seen so far."""

    n_shards: int
    started: int = 0
    done: int = 0
    failed: int = 0
    beats: int = 0
    events_done: int = 0
    #: Mean per-shard completion fraction in [0, 1].
    progress: float = 0.0
    min_watermark_s: float = 0.0
    median_watermark_s: float = 0.0
    peak_rss_bytes: int = 0


def render_progress(snapshot: LiveSnapshot) -> str:
    """One-line human progress summary (pure function of the snapshot)."""
    parts = [
        f"shards {snapshot.done}/{snapshot.n_shards} done",
        f"progress {snapshot.progress * 100.0:5.1f}%",
        f"events {snapshot.events_done}",
        f"watermark {snapshot.median_watermark_s / 86400.0:.2f}d",
    ]
    if snapshot.failed:
        parts.append(f"FAILED {snapshot.failed}")
    return "[live] " + " | ".join(parts)


class ProgressRenderer:
    """Terminal progress output: single-line refresh on a TTY, plain
    periodic lines when piped (line-oriented, machine-greppable)."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_line = ""
        self._wrote_any = False

    def render(self, snapshot: LiveSnapshot) -> None:
        """Write the current progress line (skips exact repeats)."""
        line = render_progress(snapshot)
        if line == self._last_line:
            return
        self._last_line = line
        self._wrote_any = True
        if self._is_tty:
            pad = "\x1b[K"  # clear to end of line
            self.stream.write(f"\r{line}{pad}")
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Terminate the refresh line so later output starts clean."""
        if self._is_tty and self._wrote_any:
            self.stream.write("\n")
            self.stream.flush()


@dataclass(slots=True)
class WorkerLiveSetup:
    """Per-worker live-telemetry setup shipped next to the ShardJob.

    Deliberately *not* part of the job payload: the transport is
    execution plumbing, and keeping it out of :class:`ShardJob` keeps
    pipe handles out of the pickled job.
    """

    transport: BeatTransport
    beat_interval_s: float
    postmortem_dir: Path


class LivePlane:
    """The parent side of the live channel for one ``Runner.run``.

    A synchronous fold: :meth:`ingest` runs on whichever thread
    delivers a beat (the in-process loop's callback, or the coordinator
    reading its worker pipes), keeps each shard's latest beat and beat
    count, and — with ``progress`` on — renders at most one line per
    ``beat_interval_s``. :meth:`finish` renders the last line. The
    plane owns no thread, writes no postmortem and holds no reference
    to any simulation object.
    """

    def __init__(self, options: LiveOptions, *, n_shards: int,
                 stream: IO[str] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.options = options
        self._clock = clock
        self._views = {index: ShardView(shard_index=index)
                       for index in range(int(n_shards))}
        self.renderer = (ProgressRenderer(stream) if options.progress
                         else None)
        self.postmortem_dir = (options.postmortem_dir
                               if options.postmortem_dir is not None
                               else DEFAULT_POSTMORTEM_DIR)
        self._last_render = -float("inf")

    def worker_setup(self, transport: BeatTransport | None = None
                     ) -> WorkerLiveSetup:
        """The per-worker setup shipped beside each shard job.

        ``transport`` defaults to direct delivery into :meth:`ingest`
        (the in-process loop); a coordinator worker swaps in one over
        its own pipe.
        """
        return WorkerLiveSetup(
            transport=(transport if transport is not None
                       else CallbackTransport(self.ingest)),
            beat_interval_s=self.options.beat_interval_s,
            postmortem_dir=self.postmortem_dir,
        )

    def ingest(self, beat: ShardBeat) -> None:
        """Fold one beat in; render if a beat interval has passed."""
        view = self._views.get(beat.shard_index)
        if view is None:  # shard index out of range: drop, don't die
            return
        view.last_beat = beat
        view.beats += 1
        if self.renderer is not None:
            now = self._clock()
            if now - self._last_render >= self.options.beat_interval_s:
                self._last_render = now
                self.renderer.render(self.snapshot())

    def finish(self) -> None:
        """Render the last progress line and terminate it."""
        if self.renderer is not None:
            self.renderer.render(self.snapshot())
            self.renderer.close()

    def view(self, shard_index: int) -> ShardView:
        """The parent's current view of one shard."""
        return self._views[shard_index]

    def snapshot(self) -> LiveSnapshot:
        """The run-wide progress view at this instant."""
        views = list(self._views.values())
        beats = [v.last_beat for v in views if v.last_beat is not None]
        marks = [beat.watermark_s for beat in beats]
        fractions: list[float] = []
        for view in views:
            if view.done:
                fractions.append(1.0)
            elif view.last_beat is not None and view.last_beat.total > 0:
                fractions.append(view.last_beat.done / view.last_beat.total)
            else:
                fractions.append(0.0)
        return LiveSnapshot(
            n_shards=len(views),
            started=len(beats),
            done=sum(1 for v in views if v.done),
            failed=sum(1 for v in views if v.failed),
            beats=sum(v.beats for v in views),
            events_done=sum(beat.events_done for beat in beats),
            progress=(sum(fractions) / len(fractions) if fractions else 0.0),
            min_watermark_s=min(marks) if marks else 0.0,
            median_watermark_s=(statistics.median(marks) if marks else 0.0),
            peak_rss_bytes=max((beat.rss_bytes for beat in beats),
                               default=0),
        )

    def __enter__(self) -> "LivePlane":
        return self

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> None:
        self.finish()
