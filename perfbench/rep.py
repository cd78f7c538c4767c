"""Repetitions of one workload, in a process of their own.

Run as ``python3 -m perfbench.rep --workload NAME --seed N`` from the
checkout root (``perfbench/run.py`` does this). Untraced, it repeats
set-up (a cold world build) and the timed workload run until
``--seconds`` have passed, checking each result; ``--traced`` makes one
traced repetition instead. The last stdout line is one JSON report.

``--write-reference`` instead stores the workload's result at the
default seed as ``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from perfbench.spans import SpanRecorder
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "perfbench" / "reference"
MIN_ITERATIONS = 3
#: No untraced iteration starts past this; ``run.py`` kills the process
#: at its own, later timeout.
BUDGET_S = 100.0


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))


def _cpu_s() -> float:
    """User+sys CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Max of own and children's peak RSS, in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def _shape(workload: Workload) -> dict:
    return {k: v for k, v in dataclasses.asdict(workload).items()
            if k not in ("name", "why")}


def iteration(workload: Workload, seed: int,
              recorder: SpanRecorder | None = None) -> dict:
    """Set up and run ``workload`` once; timings, results and checks.

    With a :class:`~perfbench.spans.SpanRecorder`, the layer boundaries
    are wrapped for set-up and run alike, every shard runs in this
    process, and the report carries the span totals.
    """
    from perfbench import adapter
    from perfbench.spans import layer_totals, top_level_s

    config = adapter.make_config(workload, seed)
    traced = recorder is not None
    gc.collect()  # start each repetition without the last one's garbage
    with (recorder.installed(adapter.trace_targets()) if traced
          else contextlib.nullcontext()):
        started = time.perf_counter()
        source, world = adapter.build_world(config)
        setup_s = time.perf_counter() - started
        slots = adapter.window_slots(config, world) * workload.replays
        del world
        cpu_before = _cpu_s()
        run_started = time.perf_counter()
        outcome = adapter.run(workload, config, source,
                              parallelism=1 if traced else None)
        wall_s = time.perf_counter() - run_started
        cpu_s = _cpu_s() - cpu_before
    hits, misses = adapter.cache_counts(source)
    report = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "slots": slots,
        "result": outcome.result, "counters": outcome.counters,
        "phases": outcome.phases,
        "identities": [list(t) for t in outcome.identities],
        "prefetch_useful": outcome.prefetch_useful,
        "prefetch_wasted": outcome.prefetch_wasted,
        "rescued_displays": outcome.rescued_displays,
        "world_cache": {"hits": hits, "misses": misses},
        "reference_violations": (
            _reference_violations(adapter, workload, outcome.result)
            if seed == DEFAULT_SEED else None),
    }
    if traced:
        report["layers"] = layer_totals(recorder.names, recorder.name_of,
                                        recorder.parent, recorder.start,
                                        recorder.end)
        report["top_level_s"] = top_level_s(recorder.parent, recorder.start,
                                            recorder.end, run_started)
        report["n_spans"] = len(recorder.start)
        report["task_bytes"] = adapter.task_bytes(outcome)
    return report


def _reference_violations(adapter, workload: Workload,
                          result: dict[str, float]) -> list[str]:
    path = reference_path(workload)
    if not path.is_file():
        return [f"no committed reference at {path.name}"]
    reference = json.loads(path.read_text())
    expected = {"seed": DEFAULT_SEED, "shape": _shape(workload)}
    found = {"seed": reference["seed"], "shape": reference["shape"]}
    if found != expected:
        return [f"reference was made for {found}, not {expected}"]
    return adapter.reference_violations(reference["result"], result)


def repeat(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced iterations for ``seconds`` (at least ``MIN_ITERATIONS``).

    An iteration that raises is recorded as an error and the loop goes
    on; no iteration starts if the slowest so far would overrun
    ``BUDGET_S``.
    """
    started = time.perf_counter()
    iterations: list[dict] = []
    slowest = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if len(iterations) >= MIN_ITERATIONS and elapsed >= seconds:
            break
        if iterations and elapsed + slowest > BUDGET_S:
            break
        began = time.perf_counter()
        try:
            iterations.append(iteration(workload, seed))
        except Exception:
            iterations.append({"error": traceback.format_exc(limit=3)})
        slowest = max(slowest, time.perf_counter() - began)
    return {"peak_rss_mb": _peak_rss_mb(), "iterations": iterations}


def traced(workload: Workload, seed: int, spans_path: Path | None) -> dict:
    """One traced iteration; spans are written once, at the end."""
    recorder = SpanRecorder()
    report = iteration(workload, seed, recorder)
    if spans_path is not None:
        recorder.save(spans_path)
    return report


def write_reference(workload: Workload) -> Path:
    """Store ``workload``'s result at the default seed as its reference."""
    from perfbench import adapter

    config = adapter.make_config(workload, DEFAULT_SEED)
    outcome = adapter.run(workload, config, adapter.build_world(config)[0])
    path = reference_path(workload)
    path.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "shape": _shape(workload),
         "result": outcome.result}, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    _bootstrap()
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        print(write_reference(workload))
        return 0
    if args.traced:
        report = traced(workload, args.seed, args.spans_out)
    else:
        report = repeat(workload, args.seed, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
