"""Live telemetry plane: streamed shard heartbeats and the watchdog.

Everything else in :mod:`repro.obs` is post-hoc — the parent process
learns nothing about a shard until the shard *returns*. This module is
the out-of-band channel that closes that gap without touching the
deterministic side: shard workers periodically publish compact
:class:`ShardBeat` records (sim-time watermark, progress counts,
counter deltas, peak RSS) over a pluggable transport, and the parent's
:class:`LiveAggregator` folds them into a run-wide progress view with a
straggler/stall **watchdog** and an optional terminal renderer
(CLI ``--progress``).

Hard invariant (tested, CI-smoked): **beats are observation only**.
They read shard-local instruments and never feed anything back into the
simulation, so a run with live telemetry on is bit-identical to the
same run with it off, at any parallelism. Beat *emission timing* is
wall-clock-throttled and therefore nondeterministic — which is fine,
because beats never enter metrics, traces, run records, or the ledger.

Together with :mod:`repro.obs.profile` and :mod:`repro.obs.resources`
this is one of the three modules allowed to read a real clock
(repro-lint RPR001 allowlist): heartbeat pacing, silence detection, and
arrival stamping are wall-clock territory by definition. The *trace*
heartbeat instant (:func:`shard_heartbeat`) stays sim-time-stamped and
deterministic; only the out-of-band beat stream carries wall-clock
pacing.

Transport
---------
A worker publishes beats through a :class:`CallbackTransport`. In the
in-process loop its sink is the aggregator's ``ingest``; in a
:mod:`repro.dist` worker it sends on the worker's pipe, so beats
travel beside results, and the coordinator feeds them to the
aggregator and renews the shard's lease with each one.

See DESIGN.md §12 for the full plane architecture and the determinism
argument.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping

from .flightrec import Postmortem, postmortem_filename
from .log import get_logger
from .metrics import MetricsRegistry
from .resources import peak_rss_bytes

#: Schema version stamped into every serialized beat / live snapshot.
LIVE_SCHEMA_VERSION = 1

#: Default postmortem directory when no artifact dir is configured.
DEFAULT_POSTMORTEM_DIR = Path("obs-runs") / "postmortems"

_log = get_logger("obs.live")


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

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "ShardBeat":
        """Inverse of :meth:`to_jsonable`; raises ``ValueError`` on junk."""
        def _int(key: str, default: int = 0) -> int:
            value = payload.get(key, default)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"beat field {key!r} must be an int, "
                    f"got {type(value).__name__}")
            return value

        raw_mark = payload.get("watermark_s", 0.0)
        if isinstance(raw_mark, bool) or not isinstance(raw_mark,
                                                        (int, float)):
            raise ValueError("beat field 'watermark_s' must be a number, "
                             f"got {type(raw_mark).__name__}")
        counters = payload.get("counters", {})
        if not isinstance(counters, dict):
            raise ValueError("beat field 'counters' must be an object, "
                             f"got {type(counters).__name__}")
        return cls(
            shard_index=_int("shard_index"),
            n_shards=_int("n_shards", 1),
            seq=_int("seq"),
            watermark_s=float(raw_mark),
            done=_int("done"),
            total=_int("total"),
            users=_int("users"),
            events_done=_int("events_done"),
            counters={str(k): float(v) for k, v in counters.items()
                      if isinstance(v, (int, float))},
            rss_bytes=_int("rss_bytes"),
            final=bool(payload.get("final", False)),
            failed=bool(payload.get("failed", False)),
        )


@dataclass(frozen=True, slots=True)
class LiveOptions:
    """Knobs for the live telemetry plane (CLI ``--progress`` & co.).

    ``stall_after_s`` is the watchdog's wall-clock silence window: a
    running shard that has not beaten for that long is flagged stalled
    (and un-flagged by its next beat). The :mod:`repro.dist`
    coordinator uses the same window as its lease, so
    ``beat_interval_s`` must stay below it or healthy shards would lose
    their leases between beats. ``lag_threshold_s`` is the **sim-time**
    watermark-lag bound: a shard trailing the median running shard's
    watermark by more than this is flagged a straggler. Both produce
    structured warnings — never any change to the simulation.
    """

    beat_interval_s: float = 1.0
    stall_after_s: float = 30.0
    lag_threshold_s: float = 86400.0
    progress: bool = False
    ring_size: int = 256
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
    in-process loop uses an aggregator's ``ingest``.
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
    Counter payloads are *deltas* against the previous published beat,
    so the channel stays compact no matter how long the run is.
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
        self._registry = registry
        self._clock = clock
        self._seq = 0
        self._last_emit = -float("inf")
        self._last_counters: dict[str, float] = {}

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Attach the shard-local registry counter deltas are read from."""
        self._registry = registry

    def _counter_deltas(self) -> dict[str, float]:
        if self._registry is None:
            return {}
        totals = dict(self._registry.snapshot().counters)
        deltas = {name: value - self._last_counters.get(name, 0.0)
                  for name, value in totals.items()
                  if value != self._last_counters.get(name, 0.0)}
        self._last_counters = totals
        return deltas

    def beat(self, watermark_s: float, *, done: int = 0, total: int = 0,
             users: int = 0, events_done: int = 0, force: bool = False,
             final: bool = False, failed: bool = False) -> ShardBeat | None:
        """Publish a beat if the wall-clock throttle allows (or forced).

        Returns the published beat, or ``None`` when throttled. Reads
        shard state (counters, RSS) but never writes any — the hard
        observation-only invariant.
        """
        now = self._clock()
        if not (force or final or failed):
            if now - self._last_emit < self.interval_s:
                return None
        self._last_emit = now
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
# Parent side: aggregator + watchdog
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ShardView:
    """What the parent currently knows about one shard."""

    shard_index: int
    last_beat: ShardBeat | None = None
    last_seen_s: float = 0.0
    beats: int = 0
    #: The current attempt has beaten (a waiting shard is not timed).
    running: bool = False
    stalled: bool = False
    lagging: bool = False
    done: bool = False
    failed: bool = False


@dataclass(frozen=True, slots=True)
class StragglerEvent:
    """One watchdog finding (stall or watermark lag), parent-side only."""

    shard_index: int
    kind: str                 # "stall" | "lag" | "recovered"
    silence_s: float = 0.0
    watermark_s: float = 0.0
    median_watermark_s: float = 0.0
    message: str = ""


@dataclass(frozen=True, slots=True)
class LiveSnapshot:
    """Run-wide progress view folded from the beats seen so far."""

    n_shards: int
    started: int = 0
    done: int = 0
    failed: int = 0
    stalled: int = 0
    lagging: int = 0
    beats: int = 0
    events_done: int = 0
    #: Mean per-shard completion fraction in [0, 1].
    progress: float = 0.0
    min_watermark_s: float = 0.0
    median_watermark_s: float = 0.0
    peak_rss_bytes: int = 0


class LiveAggregator:
    """Folds shard beats into a progress view; runs the watchdog.

    Thread-safe: beats may arrive on one thread while the watchdog and
    renderer read from another. The injected ``clock`` (monotonic
    seconds) makes stall detection testable without waiting out real
    silence windows. Findings are logged under ``repro.obs.live``.
    """

    def __init__(self, n_shards: int, options: LiveOptions, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.options = options
        self._clock = clock
        self._lock = threading.Lock()
        self._views = {index: ShardView(shard_index=index)
                       for index in range(int(n_shards))}

    # -- ingest -------------------------------------------------------

    def ingest(self, beat: ShardBeat) -> None:
        """Fold one beat in; a late beat clears the shard's stall flag."""
        events: list[StragglerEvent] = []
        with self._lock:
            view = self._views.get(beat.shard_index)
            if view is None:  # shard index out of range: drop, don't die
                return
            view.last_beat = beat
            view.last_seen_s = self._clock()
            view.beats += 1
            view.running = True
            view.done = view.done or beat.final
            view.failed = view.failed or beat.failed
            if view.stalled:
                view.stalled = False
                events.append(StragglerEvent(
                    shard_index=beat.shard_index, kind="recovered",
                    watermark_s=beat.watermark_s,
                    message=(f"shard {beat.shard_index} recovered: beat "
                             f"seq={beat.seq} after stall flag")))
        for event in events:
            self._fire(event)

    def reset_shard(self, shard_index: int) -> None:
        """Re-arm one shard's view for a re-dispatched attempt.

        The distributed coordinator calls this when it requeues a
        shard (expired lease, lost worker): the stall/lag/done/failed
        flags belong to the dead attempt, and the shard waits for a
        worker again, so the watchdog times the *new* attempt from its
        first beat, not the old one's corpse. The last beat is kept —
        it is still the best available progress information for
        postmortems.
        """
        with self._lock:
            view = self._views.get(shard_index)
            if view is None:
                return
            view.running = False
            view.stalled = False
            view.lagging = False
            view.done = False
            view.failed = False

    # -- watchdog -----------------------------------------------------

    def check(self) -> list[StragglerEvent]:
        """One watchdog pass; returns (and fires) newly flagged events.

        Only running shards (beaten since their last dispatch) are
        timed: a shard still waiting for a worker is not a straggler.
        A shard is **stalled** when it is not done and its wall-clock
        silence exceeds ``stall_after_s``; it is **lagging** when its
        sim-time watermark trails the median beating shard's watermark
        by more than ``lag_threshold_s``. Flags fire once per episode
        (a recovery re-arms them). The watchdog observes and warns —
        it never touches the simulation.
        """
        now = self._clock()
        fired: list[StragglerEvent] = []
        with self._lock:
            marks = [v.last_beat.watermark_s for v in self._views.values()
                     if v.last_beat is not None and not v.done]
            median = statistics.median(marks) if marks else 0.0
            for view in self._views.values():
                if view.done or not view.running:
                    continue
                silence = now - view.last_seen_s
                if not view.stalled and silence > self.options.stall_after_s:
                    view.stalled = True
                    fired.append(StragglerEvent(
                        shard_index=view.shard_index, kind="stall",
                        silence_s=silence,
                        watermark_s=(view.last_beat.watermark_s
                                     if view.last_beat else 0.0),
                        median_watermark_s=median,
                        message=(f"shard {view.shard_index} stalled: no "
                                 f"beat for {silence:.1f}s (window "
                                 f"{self.options.stall_after_s:.1f}s)")))
                if view.last_beat is None:
                    continue
                lag = median - view.last_beat.watermark_s
                if not view.lagging and lag > self.options.lag_threshold_s:
                    view.lagging = True
                    fired.append(StragglerEvent(
                        shard_index=view.shard_index, kind="lag",
                        watermark_s=view.last_beat.watermark_s,
                        median_watermark_s=median,
                        message=(f"shard {view.shard_index} straggling: "
                                 f"watermark {view.last_beat.watermark_s:.0f}s "
                                 f"trails the median {median:.0f}s by "
                                 f"{lag:.0f}s")))
                elif view.lagging and lag <= self.options.lag_threshold_s:
                    view.lagging = False
        for event in fired:
            self._fire(event)
        return fired

    def _fire(self, event: StragglerEvent) -> None:
        if event.kind == "recovered":
            _log.info("%s", event.message)
        else:
            _log.warning("%s", event.message)

    # -- views --------------------------------------------------------

    def view(self, shard_index: int) -> ShardView:
        """The parent's current view of one shard (a copy-safe read)."""
        with self._lock:
            return self._views[shard_index]

    def unfinished(self) -> list[ShardView]:
        """Views of shards with no final beat (postmortem candidates)."""
        with self._lock:
            return [view for view in self._views.values() if not view.done]

    def snapshot(self) -> LiveSnapshot:
        """The run-wide progress view at this instant."""
        with self._lock:
            views = list(self._views.values())
        started = [v for v in views if v.beats > 0]
        marks = [v.last_beat.watermark_s for v in started
                 if v.last_beat is not None]
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
            started=len(started),
            done=sum(1 for v in views if v.done),
            failed=sum(1 for v in views if v.failed),
            stalled=sum(1 for v in views if v.stalled),
            lagging=sum(1 for v in views if v.lagging),
            beats=sum(v.beats for v in views),
            events_done=sum(v.last_beat.events_done for v in started
                            if v.last_beat is not None),
            progress=(sum(fractions) / len(fractions) if fractions else 0.0),
            min_watermark_s=min(marks) if marks else 0.0,
            median_watermark_s=(statistics.median(marks) if marks else 0.0),
            peak_rss_bytes=max((v.last_beat.rss_bytes for v in started
                                if v.last_beat is not None), default=0),
        )


# ----------------------------------------------------------------------
# Rendering (CLI --progress)
# ----------------------------------------------------------------------


def render_progress(snapshot: LiveSnapshot) -> str:
    """One-line human progress summary (pure function of the snapshot)."""
    parts = [
        f"shards {snapshot.done}/{snapshot.n_shards} done",
        f"progress {snapshot.progress * 100.0:5.1f}%",
        f"events {snapshot.events_done}",
        f"watermark {snapshot.median_watermark_s / 86400.0:.2f}d",
    ]
    if snapshot.stalled:
        parts.append(f"STALLED {snapshot.stalled}")
    if snapshot.lagging:
        parts.append(f"lagging {snapshot.lagging}")
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


# ----------------------------------------------------------------------
# The plane: parent-side lifecycle glue
# ----------------------------------------------------------------------


@dataclass(slots=True)
class WorkerLiveSetup:
    """Per-worker live-telemetry setup shipped next to the ShardJob.

    Deliberately *not* part of the job payload: the transport is
    execution plumbing, and keeping it out of :class:`ShardJob` keeps
    the RPR007 serialization closure free of pipe handles.
    """

    transport: BeatTransport
    beat_interval_s: float
    ring_size: int
    postmortem_dir: Path
    system: str = ""
    backend: str = ""


class LivePlane:
    """Owns the parent side of the live channel for one ``Runner.run``.

    ``start`` spins up the watchdog/renderer thread; beats reach the
    aggregator from whoever delivers them (the in-process loop's
    callback, or the coordinator reading its worker pipes). ``finish``
    runs a last watchdog pass, writes parent-side postmortems for
    shards that never finished (worker loss, stall-timeout), and stops
    the thread. The plane is pure observation: it holds no reference
    to any simulation object.
    """

    def __init__(self, options: LiveOptions, *, n_shards: int,
                 system: str = "", backend: str = "",
                 stream: IO[str] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.options = options
        self.n_shards = int(n_shards)
        self.system = system
        self.backend = backend
        self.aggregator = LiveAggregator(n_shards, options, clock=clock)
        self.renderer = (ProgressRenderer(stream) if options.progress
                         else None)
        self.postmortem_dir = (options.postmortem_dir
                               if options.postmortem_dir is not None
                               else DEFAULT_POSTMORTEM_DIR)
        self.postmortems: list[Path] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._poll_s = max(0.05, min(options.beat_interval_s,
                                     options.stall_after_s / 4.0, 0.5))

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Start the watchdog/renderer thread."""
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-live-plane",
                                        daemon=True)
        self._thread.start()

    def worker_setup(self, transport: BeatTransport | None = None
                     ) -> WorkerLiveSetup:
        """The per-worker setup shipped beside each shard job.

        ``transport`` defaults to direct delivery into this plane's
        aggregator (the in-process loop); a coordinator worker swaps in
        one over its own pipe.
        """
        return WorkerLiveSetup(
            transport=(transport if transport is not None
                       else CallbackTransport(self.aggregator.ingest)),
            beat_interval_s=self.options.beat_interval_s,
            ring_size=self.options.ring_size,
            postmortem_dir=self.postmortem_dir,
            system=self.system,
            backend=self.backend,
        )

    def finish(self, failed: bool = False) -> None:
        """Stop the thread, run a last watchdog pass, write loss postmortems."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.aggregator.check()
        if failed:
            self._write_loss_postmortems()
        if self.renderer is not None:
            self.renderer.render(self.aggregator.snapshot())
            self.renderer.close()

    # -- internals ----------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self._poll_s):
            for event in self.aggregator.check():
                if event.kind == "stall":
                    self._write_stall_postmortem(event)
            if self.renderer is not None:
                self.renderer.render(self.aggregator.snapshot())

    # -- postmortems --------------------------------------------------

    def _write_stall_postmortem(self, event: StragglerEvent) -> None:
        view = self.aggregator.view(event.shard_index)
        postmortem = Postmortem(
            kind="stall",
            shard_index=event.shard_index,
            n_shards=self.n_shards,
            system=self.system,
            backend=self.backend,
            reason=event.message,
            last_beat=(view.last_beat.to_jsonable()
                       if view.last_beat is not None else None),
        )
        self._record(postmortem.write_to(self.postmortem_dir))

    def _write_loss_postmortems(self) -> None:
        for view in self.aggregator.unfinished():
            if view.failed:
                # The worker's own crash handler wrote the black box
                # (with the flight-recorder ring); just surface it.
                crash = (self.postmortem_dir /
                         postmortem_filename(view.shard_index, "crash"))
                if crash.is_file():
                    self._record(crash)
                    continue
            kind = "stall" if view.stalled else "lost"
            reason = (f"shard {view.shard_index} never reported a final "
                      f"beat ({view.beats} beats seen); worker lost or "
                      "killed mid-shard")
            postmortem = Postmortem(
                kind=kind,
                shard_index=view.shard_index,
                n_shards=self.n_shards,
                system=self.system,
                backend=self.backend,
                reason=reason,
                last_beat=(view.last_beat.to_jsonable()
                           if view.last_beat is not None else None),
            )
            self._record(postmortem.write_to(self.postmortem_dir))

    def note_postmortem(self, path: Path) -> None:
        """Record an externally written postmortem (coordinator-side).

        The distributed coordinator writes ``lost`` postmortems itself
        at the instant it detects worker death (it knows the worker id
        and exit code; the plane does not); this folds them into the
        plane's dedup'd list so ``finish`` and callers see one
        consistent inventory.
        """
        self._record(path)

    def _record(self, path: Path) -> None:
        if path not in self.postmortems:
            self.postmortems.append(path)
            _log.warning("postmortem written: %s (inspect with "
                         "'adprefetch obs postmortem show %s')", path, path)

    def __enter__(self) -> "LivePlane":
        self.start()
        return self

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> None:
        self.finish(failed=exc_type is not None)


def iter_beats(views: Mapping[int, ShardView]) -> Iterator[ShardBeat]:
    """Latest beats of ``views`` in shard order (introspection helper)."""
    for index in sorted(views):
        beat = views[index].last_beat
        if beat is not None:
            yield beat
