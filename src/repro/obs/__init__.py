"""Observability for the reproduction stack (``repro.obs``).

Three pillars, all designed around the determinism contract:

* **Mergeable metrics** (:mod:`repro.obs.metrics`) — counters, gauges
  and fixed log-scale histograms whose snapshots merge associatively,
  so per-shard measurements fold into identical per-run totals at any
  parallelism (the RPR004 contract).
* **Sim-time tracing** (:mod:`repro.obs.trace`) — spans and instants
  stamped with *simulated* time, recorded per component and exportable
  as JSONL or Chrome ``trace_event`` JSON (loadable in Perfetto). The
  default :class:`NullRecorder` is a zero-overhead no-op.
* **Wall-clock profiling** (:mod:`repro.obs.profile`) — the only
  module allowed to read a clock (``perf_counter``); measures where
  real time goes (world build, shard execute, merge) without touching
  simulated quantities.

:class:`RunRecord` (:mod:`repro.obs.ledger`) is the one type that
identifies a run; :mod:`repro.obs.ledger` accumulates records in an
append-only, schema-versioned run ledger with tolerance-aware ``diff``
and a ``regress`` CI gate (DESIGN.md §11). Each run's artifact
directory holds one ``run.json`` — the record, config, metrics,
wall-clock profile and the resource telemetry sampled by
:mod:`repro.obs.resources` — written and validated by
:mod:`repro.obs.summarize`. :mod:`repro.obs.log` replaces ad-hoc prints
with a silenceable shared logger. :mod:`repro.obs.live` is the live
telemetry plane — streamed :class:`ShardBeat` heartbeats, the
straggler/stall watchdog, and the ``--progress`` renderer — with
:mod:`repro.obs.flightrec` providing the bounded-ring crash flight
recorder and postmortem files (DESIGN.md §12). See DESIGN.md §8 for
the naming scheme and merge contract.
"""

from . import log
from .flightrec import (
    POSTMORTEM_SCHEMA_VERSION,
    Postmortem,
    RingRecorder,
    list_postmortems,
)
from .ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA_VERSION,
    Ledger,
    LedgerError,
    RegressReport,
    RunRecord,
    diff_records,
    regress,
    snapshot_digest,
)
from .live import (
    NULL_EMITTER,
    BeatEmitter,
    CallbackTransport,
    LiveAggregator,
    LiveOptions,
    LivePlane,
    LiveSnapshot,
    NullBeatEmitter,
    ShardBeat,
    StragglerEvent,
    render_progress,
    shard_heartbeat,
)
from .manifest import (
    config_digest,
    streams_manifest_hash,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    validate_instrument_name,
)
from .profile import PhaseProfiler, PhaseStats, RunProfile
from .resources import ResourceTelemetry, collect_telemetry, peak_rss_bytes
from .runtime import (
    Obs,
    ObsOptions,
    activate,
    counter,
    current_obs,
    default_obs_options,
    gauge,
    histogram,
    next_run_dir,
    recorder,
    set_default_obs_options,
)
from .summarize import (
    RunFile,
    SummarizeError,
    find_run_dirs,
    load_run,
    summarize,
    write_run,
)
from .trace import (
    NULL_RECORDER,
    MemoryRecorder,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
    read_jsonl,
    to_chrome,
    validate_jsonl,
    write_chrome,
    write_jsonl,
)

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA_VERSION",
    "NULL_EMITTER",
    "NULL_RECORDER",
    "POSTMORTEM_SCHEMA_VERSION",
    "BeatEmitter",
    "CallbackTransport",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "Ledger",
    "LedgerError",
    "LiveAggregator",
    "LiveOptions",
    "LivePlane",
    "LiveSnapshot",
    "MemoryRecorder",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullBeatEmitter",
    "NullRecorder",
    "Obs",
    "ObsOptions",
    "PhaseProfiler",
    "PhaseStats",
    "Postmortem",
    "RegressReport",
    "ResourceTelemetry",
    "RingRecorder",
    "RunFile",
    "RunProfile",
    "RunRecord",
    "ShardBeat",
    "StragglerEvent",
    "SummarizeError",
    "TraceEvent",
    "TraceRecorder",
    "activate",
    "collect_telemetry",
    "config_digest",
    "counter",
    "current_obs",
    "default_obs_options",
    "diff_records",
    "find_run_dirs",
    "gauge",
    "histogram",
    "list_postmortems",
    "load_run",
    "log",
    "next_run_dir",
    "peak_rss_bytes",
    "read_jsonl",
    "recorder",
    "regress",
    "render_progress",
    "set_default_obs_options",
    "shard_heartbeat",
    "snapshot_digest",
    "streams_manifest_hash",
    "summarize",
    "to_chrome",
    "validate_instrument_name",
    "validate_jsonl",
    "write_chrome",
    "write_jsonl",
    "write_run",
]
