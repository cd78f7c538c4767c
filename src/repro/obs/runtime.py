"""Process-local observability context.

Components (the ad server, the client SDK, the exchange, devices) bind
their instruments from :func:`current_obs` at construction time. The
sharded Runner activates a fresh :class:`Obs` bundle around each shard
run — serially in-process, or one at a time inside each worker process
— so instruments are always shard-local and merge back deterministically
(see :mod:`repro.obs.metrics`).

Outside any activation, a process-default bundle with a real metrics
registry and the :data:`~repro.obs.trace.NULL_RECORDER` is used, so
ad-hoc harness calls still count events and tracing stays zero-cost.

:class:`ObsOptions` is the user-facing knob (CLI ``--trace`` /
``--metrics-out``): where to write run artifacts and whether to record
the per-event trace. The CLI installs a process default via
:func:`set_default_obs_options`; :class:`repro.runner.Runner` consults
it when no explicit options are passed.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .live import NULL_EMITTER, BeatEmitter, LiveOptions
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import NULL_RECORDER, TraceRecorder


@dataclass(slots=True)
class Obs:
    """One observability bundle: metrics registry, recorder, beats.

    ``beats`` is the live-telemetry emitter (:mod:`repro.obs.live`);
    it defaults to the disabled :data:`~repro.obs.live.NULL_EMITTER`
    so hot paths can guard on ``obs.beats.enabled`` exactly like they
    guard on ``recorder.enabled``.
    """

    metrics: MetricsRegistry
    recorder: TraceRecorder
    beats: BeatEmitter = NULL_EMITTER

    @classmethod
    def create(cls, recorder: TraceRecorder | None = None,
               beats: BeatEmitter | None = None) -> "Obs":
        """A new bundle with an empty registry (Null recorder default)."""
        obs = cls(metrics=MetricsRegistry(),
                  recorder=recorder if recorder is not None
                  else NULL_RECORDER,
                  beats=beats if beats is not None else NULL_EMITTER)
        if beats is not None:
            beats.bind_registry(obs.metrics)
        return obs


_DEFAULT_OBS = Obs(metrics=MetricsRegistry(), recorder=NULL_RECORDER)
_ACTIVE_OBS: Obs | None = None


def current_obs() -> Obs:
    """The active observability bundle (process default when idle)."""
    return _ACTIVE_OBS if _ACTIVE_OBS is not None else _DEFAULT_OBS


@contextmanager
def activate(obs: Obs) -> Iterator[Obs]:
    """Make ``obs`` the current bundle for the ``with`` body.

    Activations nest (the previous bundle is restored on exit), which
    keeps serial multi-shard execution shard-local.
    """
    global _ACTIVE_OBS
    previous = _ACTIVE_OBS
    _ACTIVE_OBS = obs
    try:
        yield obs
    finally:
        _ACTIVE_OBS = previous


def counter(name: str) -> Counter:
    """Shorthand for ``current_obs().metrics.counter(name)``."""
    return current_obs().metrics.counter(name)


def gauge(name: str) -> Gauge:
    """Shorthand for ``current_obs().metrics.gauge(name)``."""
    return current_obs().metrics.gauge(name)


def histogram(name: str) -> Histogram:
    """Shorthand for ``current_obs().metrics.histogram(name)``."""
    return current_obs().metrics.histogram(name)


def recorder() -> TraceRecorder:
    """Shorthand for ``current_obs().recorder``."""
    return current_obs().recorder


# ----------------------------------------------------------------------
# User-facing options (CLI --trace / --metrics-out)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ObsOptions:
    """What a run should emit and where.

    ``out_dir`` is the parent directory; every ``Runner.run`` writes
    one ``run-NNN-<label>`` subdirectory under it holding ``run.json``
    (:mod:`repro.obs.summarize`: run record, config, metrics, profile,
    resources) and — when ``trace`` is set — ``trace.jsonl`` plus
    ``trace.chrome.json``. ``ledger`` (CLI ``--ledger PATH``)
    additionally appends the run's :class:`repro.obs.ledger.RunRecord`
    (the same record ``run.json`` holds) to that JSONL ledger. ``live`` (CLI ``--progress`` /
    ``--beat-interval``) switches on the live telemetry plane
    (:mod:`repro.obs.live`): streamed shard heartbeats, the straggler
    watchdog, and the crash flight recorder — observation only, never
    affecting results.
    """

    out_dir: Path | None = None
    trace: bool = False
    label: str = ""
    ledger: Path | None = None
    live: LiveOptions | None = None


_DEFAULT_OPTIONS: ObsOptions | None = None

#: Monotone per-process run-directory sequence (run-000, run-001, ...).
_RUN_SEQUENCE = itertools.count()


def set_default_obs_options(options: ObsOptions | None) -> None:
    """Install (or clear, with ``None``) the process-default options."""
    global _DEFAULT_OPTIONS
    _DEFAULT_OPTIONS = options


def default_obs_options() -> ObsOptions | None:
    """The process-default :class:`ObsOptions`, if any."""
    return _DEFAULT_OPTIONS


def next_run_dir(options: ObsOptions, system: str) -> Path:
    """Allocate the next ``run-NNN-<label>`` directory for ``options``.

    The sequence is process-local and monotone, so successive runs of
    one experiment command land in lexicographically ordered
    subdirectories.
    """
    if options.out_dir is None:
        raise ValueError("ObsOptions.out_dir is not set")
    label = options.label or system
    index = next(_RUN_SEQUENCE)
    return Path(options.out_dir) / f"run-{index:03d}-{label}"
