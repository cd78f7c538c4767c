"""End-to-end observability invariants on the sharded Runner.

The load-bearing contract: instrumentation is *passive*. A traced run's
simulation output is bit-for-bit identical to an untraced one, and the
merged metrics/trace are themselves parallelism-invariant.
"""

from __future__ import annotations

import pytest

from repro.obs.ledger import snapshot_digest
from repro.obs.runtime import ObsOptions
from repro.obs.summarize import find_run_dirs, load_run, summarize
from repro.obs.trace import validate_jsonl
from repro.runner import Runner


@pytest.fixture(scope="module")
def runs(tiny_config, tiny_world):
    """Three headline runs: untraced, traced serial, traced 4-way."""
    def run(parallelism, trace):
        return Runner(tiny_config, shards=4, world=tiny_world,
                      parallelism=parallelism,
                      obs=ObsOptions(trace=trace)).run("headline")
    return {
        "plain": run(1, False),
        "traced_1": run(1, True),
        "traced_4": run(4, True),
    }


def test_tracing_never_changes_results(runs):
    plain, traced = runs["plain"], runs["traced_1"]
    assert traced.prefetch == plain.prefetch
    assert traced.realtime == plain.realtime
    assert traced.comparison == plain.comparison


def test_traced_run_parallelism_invariant(runs):
    serial, parallel = runs["traced_1"], runs["traced_4"]
    assert parallel.comparison == serial.comparison
    assert parallel.metrics == serial.metrics
    assert parallel.trace_events == serial.trace_events
    assert len(serial.trace_events) > 0


def test_metrics_collected_even_untraced(runs):
    plain = runs["plain"]
    assert plain.trace_events == ()
    assert plain.metrics.counters["server.rescues"] >= 0
    assert plain.metrics.counters["client.syncs"] > 0
    # Every shard contributed a wall-clock sample.
    for index in range(plain.n_shards):
        assert f"shard.{index}.execute" in plain.profile.phases


def test_manifest_pins_the_run(runs):
    """The run's record pins its identity and totals, traced or not."""
    record = runs["traced_1"].record
    assert record.system == "headline"
    assert record.n_shards == 4
    assert record.seq == 0
    assert record.counter_totals == runs["traced_1"].metrics.counters
    assert record.metrics_digest == snapshot_digest(
        runs["traced_1"].metrics)
    assert record.rng_stream_manifest_hash is not None
    # Tracing is observation only: the untraced record is the same.
    assert runs["plain"].record == record


def test_trace_events_are_shard_ordered_sim_time(runs):
    events = runs["traced_1"].trace_events
    shards = [e.shard for e in events]
    assert shards == sorted(shards)          # merged in shard-index order
    assert all(e.ts >= 0 for e in events)
    assert {e.component for e in events} >= {"client", "server", "exchange"}


def test_artifact_directory_roundtrip(tmp_path, tiny_config,
                                      tiny_world):
    result = Runner(tiny_config, shards=2, world=tiny_world,
                    obs=ObsOptions(out_dir=tmp_path,
                                   trace=True)).run("headline")
    run_dir = result.artifacts_dir
    assert run_dir is not None and run_dir.parent == tmp_path
    names = {p.name for p in run_dir.iterdir()}
    assert names == {"run.json", "trace.jsonl", "trace.chrome.json"}
    assert validate_jsonl(run_dir / "trace.jsonl") == []

    assert find_run_dirs(tmp_path) == [run_dir]
    run = load_run(run_dir)
    assert run["record"] == result.record
    assert run["metrics"] == result.metrics
    assert run["profile"] == result.profile
    assert run["resources"] == result.resources
    assert run["elapsed_s"] == result.elapsed_s
    assert run["trace_enabled"]
    assert run["config"]["seed"] == tiny_config.seed
    text = summarize(tmp_path)
    for needle in ("exchange.auctions.held", "server.plan.assignments",
                   "server.rescues", "client.beacons", "radio.wakeups",
                   "wall-clock profile", "shard.0.execute",
                   "headline.energy_savings", "peak_rss=", "train_days",
                   "trace.chrome.json"):
        assert needle in text
