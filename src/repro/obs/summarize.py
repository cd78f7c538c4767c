"""A run's one artifact, ``run.json``: its schema, writer and validator.

An artifact directory ``run-NNN-<label>/`` holds ``run.json`` (plus
``trace.jsonl`` and ``trace.chrome.json`` when traced). Under the header
``{"schema": "repro.obs.run", "version": 1}`` it states each fact once:
``record`` (the :class:`~repro.obs.ledger.RunRecord`, exactly the row
``--ledger`` appends, with ``seq`` 0), ``config``, ``trace_enabled``,
``elapsed_s``, ``metrics`` (the merged snapshot), ``profile`` (wall-clock
phases) and ``resources`` (peak RSS and CPU seconds; throughput rates
derive from ``elapsed_s`` and the counters). :func:`load_run` is the one
validator — every key required with its exact JSON type
(:mod:`repro.obs.fields`), one-line :class:`SummarizeError` on any fault
— and ``python -m repro obs summarize <dir>`` renders every section.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, TypedDict, TypeVar

from .fields import check_object, load_object
from .ledger import RunRecord, render_record, snapshot_digest
from .metrics import MetricsSnapshot
from .profile import RunProfile
from .resources import ResourceTelemetry


class SummarizeError(ValueError):
    """A run artifact is missing, empty, or fails the expected schema.

    The CLI turns this into a one-line stderr message (no traceback):
    artifact directories are user-supplied paths, and a corrupt
    ``run.json`` should read as a diagnosis, not a crash.
    """


#: File names inside one run directory.
RUN_FILENAME = "run.json"
TRACE_FILENAME = "trace.jsonl"
CHROME_FILENAME = "trace.chrome.json"

#: Header of every ``run.json``.
RUN_SCHEMA_NAME = "repro.obs.run"
RUN_SCHEMA_VERSION = 1

#: The retired per-file layout, recognised only to reject it clearly.
_OLD_LAYOUT_FILENAME = "manifest.json"

_T = TypeVar("_T")

#: The keys of a ``run.json`` → their JSON kinds (see :mod:`.fields`).
_RUN_SCHEMA = {
    "schema": "str", "version": "int", "record": "object",
    "config": "object", "trace_enabled": "bool", "elapsed_s": "number",
    "metrics": "object", "profile": "object", "resources": "object",
}


class RunFile(TypedDict):
    """The sections of one ``run.json``, parsed."""

    record: RunRecord
    config: dict[str, object]
    trace_enabled: bool
    elapsed_s: float
    metrics: MetricsSnapshot
    profile: RunProfile
    resources: ResourceTelemetry


def write_run(run_dir: str | Path, run: RunFile) -> None:
    """Write ``run`` as ``run_dir/run.json``."""
    resources = run["resources"]
    payload = {
        "schema": RUN_SCHEMA_NAME,
        "version": RUN_SCHEMA_VERSION,
        "record": run["record"].to_jsonable(),
        "config": run["config"],
        "trace_enabled": run["trace_enabled"],
        "elapsed_s": run["elapsed_s"],
        "metrics": run["metrics"].to_jsonable(),
        "profile": run["profile"].to_jsonable(),
        "resources": {"peak_rss_bytes": resources.peak_rss_bytes,
                      "cpu_time_s": resources.cpu_time_s},
    }
    path = Path(run_dir) / RUN_FILENAME
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def find_run_dirs(root: str | Path) -> list[Path]:
    """Run directories under ``root`` (or ``root`` itself), sorted.

    A run directory is recognised by its ``run.json`` — or by the
    retired ``manifest.json``, so :func:`load_run` can reject it with a
    diagnosis instead of the directory being skipped silently.
    """
    def is_run_dir(path: Path) -> bool:
        return ((path / RUN_FILENAME).exists()
                or (path / _OLD_LAYOUT_FILENAME).exists())

    base = Path(root)
    if is_run_dir(base):
        return [base]
    if not base.is_dir():
        return []
    return sorted(child for child in base.iterdir()
                  if child.is_dir() and is_run_dir(child))


def _section(payload: dict[str, Any], name: str,
             parse: Callable[[dict[str, Any]], _T]) -> _T:
    """Parse one section, prefixing any fault with its name."""
    try:
        return parse(payload[name])
    except ValueError as exc:
        raise ValueError(f"section {name!r}: {exc}") from None


def _parse(payload: object) -> RunFile:
    """The validated sections of a ``run.json`` payload (``ValueError``)."""
    run = check_object(payload, _RUN_SCHEMA, RUN_FILENAME)
    header = (run["schema"], run["version"])
    if header != (RUN_SCHEMA_NAME, RUN_SCHEMA_VERSION):
        raise ValueError(f"header is {header[0]!r} version {header[1]!r}, "
                         f"expected {RUN_SCHEMA_NAME!r} version "
                         f"{RUN_SCHEMA_VERSION} — schema mismatch")
    record = _section(run, "record", RunRecord.from_jsonable)
    metrics = _section(run, "metrics", MetricsSnapshot.from_jsonable)
    resources = _section(run, "resources", lambda raw: check_object(
        raw, {"peak_rss_bytes": "int", "cpu_time_s": "number"}))
    if record.counter_totals != metrics.counters:
        raise ValueError("section 'record': counter_totals disagree with "
                         "section 'metrics'")
    if record.metrics_digest != snapshot_digest(metrics):
        raise ValueError("section 'record': metrics_digest does not match "
                         "section 'metrics'")
    counters = metrics.counters
    return RunFile(
        record=record, config=run["config"],
        trace_enabled=run["trace_enabled"], elapsed_s=run["elapsed_s"],
        metrics=metrics,
        profile=_section(run, "profile", RunProfile.from_jsonable),
        resources=ResourceTelemetry(
            elapsed_s=run["elapsed_s"],
            users_total=counters.get("throughput.users_total", 0.0),
            events_total=counters.get("throughput.events_total", 0.0),
            **resources))


def load_run(path: str | Path) -> RunFile:
    """Load and validate one run directory's ``run.json``.

    Raises :class:`SummarizeError` (a ``ValueError``) with a one-line
    diagnosis naming the file and the faulty section or key when the
    file is missing, empty, not JSON, carries the wrong header, or any
    section fails its schema — and for a directory that holds only the
    retired ``manifest.json`` layout.
    """
    file = Path(path) / RUN_FILENAME
    if not file.exists():
        if (file.parent / _OLD_LAYOUT_FILENAME).exists():
            raise SummarizeError(
                f"{file.parent}: holds the retired manifest.json layout, "
                f"not {RUN_FILENAME} — re-run the command to regenerate it")
        raise SummarizeError(f"{file}: missing {RUN_FILENAME}")
    try:
        return load_object(file, _parse)
    except ValueError as exc:
        raise SummarizeError(str(exc)) from None


def render_run(path: Path, run: RunFile) -> str:
    """One run's full terminal rendering (every section).

    The record renders as ``obs ledger show`` shows it — identity,
    counter totals, result metrics — so the snapshot adds only its
    gauges and histograms.
    """
    # Imported lazily: repro.metrics pulls simulator modules that
    # themselves import repro.obs at module load.
    from repro.metrics.summary import format_table

    resources, snapshot = run["resources"], run["metrics"]
    sections = [
        f"## {path.name}\n"
        f"trace={'on' if run['trace_enabled'] else 'off'} "
        f"elapsed={run['elapsed_s']:.2f}s "
        f"peak_rss={resources.peak_rss_bytes / 2**20:.1f}MiB "
        f"cpu={resources.cpu_time_s:.2f}s "
        f"users/s={resources.users_per_sec:.4g} "
        f"events/s={resources.events_per_sec:.4g}",
        render_record(run["record"]),
        "config:\n" + "\n".join(
            f"  {name} = {json.dumps(value, sort_keys=True)}"
            for name, value in sorted(run["config"].items()))]
    if snapshot.gauges:
        sections.append(format_table(
            ["gauge", "high-water"],
            [(name, f"{value:.4g}")
             for name, value in sorted(snapshot.gauges.items())],
            title="gauges"))
    if snapshot.histograms:
        sections.append(format_table(
            ["histogram", "count", "mean", "min", "max"],
            [(name, str(h.count), f"{h.mean:.4g}",
              "-" if h.min_value is None else f"{h.min_value:.4g}",
              "-" if h.max_value is None else f"{h.max_value:.4g}")
             for name, h in sorted(snapshot.histograms.items())],
            title="histograms (fixed log-scale bins)"))
    if run["profile"].phases:
        sections.append(format_table(
            ["phase", "calls", "total", "mean", "max"],
            [(name, str(stats.calls), f"{stats.total_s:.3f}s",
              f"{stats.mean_s:.3f}s", f"{stats.max_s:.3f}s")
             for name, stats in sorted(run["profile"].phases.items())],
            title="wall-clock profile"))
    if run["trace_enabled"]:
        sections.append(f"trace: {path / TRACE_FILENAME} "
                        f"(Chrome export: {path / CHROME_FILENAME})")
    return "\n\n".join(sections)


def summarize(root: str | Path) -> str:
    """Render every run directory found under ``root``."""
    runs = find_run_dirs(root)
    if not runs:
        return (f"no run directories under {root} "
                f"(expected {RUN_FILENAME} files)")
    return "\n\n".join(render_run(path, load_run(path)) for path in runs)
