"""Each workload at a tiny shape, end to end, with the correctness gate on."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, metrics, rep
from perfbench.spans import SpanRecorder
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SEED = 3  # not the default seed: the references are for the pinned shapes


def tiny(name: str):
    workload = WORKLOADS[name]
    shards = 2 if workload.shards and workload.shards > 1 else workload.shards
    return dataclasses.replace(workload, n_users=6, n_days=3, train_days=2,
                               shards=shards)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_the_gate(name):
    workload = tiny(name)
    untraced = [rep.iteration(workload, SEED) for _ in range(2)]
    traced = [rep.iteration(workload, SEED, SpanRecorder()) for _ in range(2)]
    gate = checks.Gate()
    for report in untraced + traced:
        assert report["reference_violations"] is None
        checks.check_rep(gate, report, name)
    checks.check_repeats(gate, untraced, traced)
    assert gate.problems == []
    # identities per headline run + 2 repeats + 2x2 traced + 1 call counts
    assert gate.attempted == 4 * workload.headline_runs * 4 + 2 + 4 + 1

    e2e = metrics.end_to_end(untraced, peak_rss_mb=1.0)
    assert list(e2e) == [n for n, _, _ in metrics.END_TO_END]
    assert all(value > 0 for value in e2e.values())
    layers = metrics.per_layer(untraced, traced, gate.error_rate)
    assert list(layers) == [n for n, _, _ in metrics.PER_LAYER]
    assert layers["experiments.execute_shard.calls"] > 0
    assert layers["error_rate"] == 0.0


def test_e9_runs_the_realtime_baseline_once_per_runner():
    report = rep.iteration(tiny("e9-event"), SEED, SpanRecorder())
    assert report["layers"]["baselines.run_realtime"]["calls"] == 4
    assert report["layers"]["traces.epoch_slot_counts"]["calls"] == 4


def test_gate_counts_a_broken_identity_and_a_drifting_count():
    report = rep.iteration(tiny("headline-batched"), SEED)
    broken = dict(report, identities=[["x == y", 1, 2]])
    drifted = dict(report, counters={**report["counters"], "extra": 1.0})
    gate = checks.Gate()
    checks.check_rep(gate, broken, "broken")
    checks.check_repeats(gate, [report, drifted], [])
    assert gate.failed == 2 and gate.attempted == 3


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e9-event",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
