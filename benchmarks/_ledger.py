"""Benchmark → run-ledger bridge.

Every ``bench_*.py`` run appends one deterministic
:class:`repro.obs.ledger.RunRecord` to the committed
``benchmarks/ledger.jsonl`` via the ``record_table`` fixture, so the
repo accumulates its own result trajectory: the record carries the
run's identity (config hash, seed, RNG stream-manifest hash), the
benchmark's curated headline metrics, and a content digest of the full
result rows. No timing enters the record; cross-commit timing is
``perfbench``'s job.

``adprefetch obs ledger regress`` gates the latest record of every run
key against the committed trajectory (see DESIGN.md §11).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from repro.experiments.config import ExperimentConfig
from repro.obs.ledger import Ledger, RunRecord

#: The committed ledger benchmarks append to.
LEDGER_PATH = Path(__file__).parent / "ledger.jsonl"


def rows_digest(rows: object) -> str:
    """Content hash of a benchmark's plain-JSON result rows."""
    payload = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def append_bench_record(experiment_id: str, *,
                        config: ExperimentConfig | None,
                        metrics: Mapping[str, float] | None,
                        rows: object) -> RunRecord:
    """Append one benchmark run to the committed ledger.

    ``metrics`` is the benchmark's curated map of headline scalar
    results (the quantities ``regress`` guards); ``rows`` is the full
    plain-JSON result payload, pinned by digest without being stored.
    ``rows=None`` skips the digest (benchmarks whose rows carry
    wall-clock numbers). Config-free artifacts (static app-model
    tables) still get a record keyed by the experiment id alone.
    """
    digest = rows_digest(rows) if rows is not None else ""
    curated = {str(k): float(v) for k, v in dict(metrics or {}).items()}
    if config is not None:
        record = RunRecord.for_run(config, system=experiment_id, n_shards=1,
                                   parallelism=1, metrics=curated,
                                   metrics_digest=digest)
    else:
        record = RunRecord(experiment=experiment_id, system=experiment_id,
                           config_hash="static", seed=0, n_shards=1,
                           parallelism=1, metrics=curated,
                           metrics_digest=digest)
    return Ledger(LEDGER_PATH).append(record)
