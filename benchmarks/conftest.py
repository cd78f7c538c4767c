"""Shared benchmark infrastructure.

Each benchmark regenerates one paper artifact at *bench scale* (a
smaller population than the paper's 1,750 users so the suite completes
in minutes) and asserts the paper's qualitative shape. Scale knobs are
environment-overridable:

``REPRO_BENCH_USERS`` (default 150), ``REPRO_BENCH_DAYS`` (default 8),
``REPRO_BENCH_TRAIN_DAYS`` (default 4), ``REPRO_BENCH_SEED`` (default 7).

Rendered tables are printed (visible with ``-s``) and written to
``benchmarks/results/<id>.txt`` so a plain ``pytest benchmarks/`` run
leaves the reproduced artifacts on disk, and each benchmark appends one
deterministic record to the committed run ledger (see :mod:`_ledger`).
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig

RESULTS_DIR = Path(__file__).parent / "results"


def bench_config(**overrides) -> ExperimentConfig:
    params = dict(
        n_users=int(os.environ.get("REPRO_BENCH_USERS", 150)),
        n_days=int(os.environ.get("REPRO_BENCH_DAYS", 8)),
        train_days=int(os.environ.get("REPRO_BENCH_TRAIN_DAYS", 4)),
        seed=int(os.environ.get("REPRO_BENCH_SEED", 7)),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return bench_config()


def _jsonable(value):
    """Best-effort plain-JSON conversion for result rows."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _rows_of(result):
    if result is None:
        return []
    rows = getattr(result, "rows", None)
    if rows is not None:
        return list(rows)
    if isinstance(result, (list, tuple)):
        return list(result)
    return [result]


@pytest.fixture
def record_table():
    """Record one benchmark's artifacts.

    ``_record`` writes the rendered table as ``benchmarks/results/<id>.txt``
    (and echoes it for ``-s`` runs) and appends one deterministic record
    to the committed run ledger (``benchmarks/ledger.jsonl``; see
    :mod:`_ledger`). ``metrics`` is the benchmark's curated map of
    headline scalars, the quantities ``adprefetch obs ledger regress``
    guards.
    """
    import _ledger

    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(experiment_id: str, text: str, *, result=None,
                config: ExperimentConfig | None = None,
                metrics: dict[str, float] | None = None,
                volatile_rows: bool = False) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")
        # volatile_rows: the rows themselves carry wall-clock numbers
        # (scaling curves), so pinning their digest would make the
        # record nondeterministic — only the curated metrics go in.
        rows = None if volatile_rows else _jsonable(_rows_of(result))
        _ledger.append_bench_record(experiment_id, config=config,
                                    metrics=metrics, rows=rows)

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
