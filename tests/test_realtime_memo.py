"""The realtime baseline memo in ``WorldSource``.

Realtime serving reads the world plus the fields of its
:class:`repro.experiments.harness.RealtimeKey`; runs that share a source
and differ only in other knobs replay the baseline once. A hit must be
indistinguishable from a full run in every result field.
"""

from __future__ import annotations

import pytest

from repro.baselines.presets import apply_preset
from repro.experiments import harness
from repro.experiments.config import ExperimentConfig
from repro.experiments.e13_faults import plan_for
from repro.experiments.e9_headline import SYSTEMS as E9_SYSTEMS
from repro.experiments.e9_headline import run_e9
from repro.experiments.harness import build_world, realtime_key
from repro.obs.runtime import ObsOptions
from repro.runner import (
    ExecOptions,
    Runner,
    WorldCache,
    WorldSource,
    run_shard,
    set_default_exec_options,
)

CONFIG = ExperimentConfig(n_users=18, n_days=4, train_days=2, seed=31)


def _fields(result):
    return (result.prefetch, result.realtime, result.comparison,
            result.record)


@pytest.mark.parametrize("backend", ["event", "batched"])
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
def test_memo_hit_equals_fresh_run(backend, shards, faulty):
    config = (CONFIG.variant(faults=plan_for(0.2, CONFIG)) if faulty
              else CONFIG)
    variant = apply_preset("oracle", config)
    source = WorldSource()
    Runner(config, backend=backend, shards=shards,
           source=source).run("headline")
    hit = Runner(variant, backend=backend, shards=shards,
                 source=source).run("headline")
    assert source.realtime_hits == 1
    fresh = Runner(variant, backend=backend, shards=shards).run("headline")
    assert _fields(hit) == _fields(fresh)
    assert hit.metrics.to_jsonable() == fresh.metrics.to_jsonable()
    assert hit.n_shards == fresh.n_shards == shards
    phases = hit.profile.phases
    assert {"shards.execute", "merge"} <= set(phases)
    assert all(f"shard.{i}.execute" in phases for i in range(shards))


@pytest.mark.parametrize("change", [
    *[pytest.param(lambda c, s=s: apply_preset(s, c), id=s)
      for s in E9_SYSTEMS],
    pytest.param(lambda c: c.variant(deadline_s=7200.0), id="deadline_s"),
    pytest.param(lambda c: c.variant(epsilon=0.2), id="epsilon"),
    pytest.param(lambda c: c.variant(sell_factor=0.9), id="sell_factor"),
    pytest.param(lambda c: c.variant(epoch_s=7200.0), id="epoch_s"),
])
def test_serving_knobs_hit_the_memo(change):
    source = WorldSource()
    Runner(CONFIG, source=source).run("headline")
    Runner(change(CONFIG), source=source).run("headline")
    assert (source.realtime_hits, source.realtime_misses) == (1, 1)


@pytest.mark.parametrize("change", [
    pytest.param(lambda c: c.variant(seed=32), id="seed"),
    pytest.param(lambda c: c.variant(train_days=3), id="train_days"),
    pytest.param(lambda c: c.variant(faults=plan_for(0.2, c)), id="faults"),
    pytest.param(lambda c: c.variant(n_campaigns=120), id="n_campaigns"),
])
def test_baseline_inputs_miss_the_memo(change):
    source = WorldSource()
    Runner(CONFIG, source=source).run("headline")
    Runner(change(CONFIG), source=source).run("headline")
    assert (source.realtime_hits, source.realtime_misses) == (0, 2)


@pytest.mark.parametrize("knobs", [{"backend": "batched"}, {"shards": 2}],
                         ids=["backend", "shards"])
def test_execution_layout_misses_the_memo(knobs):
    source = WorldSource()
    Runner(CONFIG, source=source).run("headline")
    Runner(CONFIG, source=source, **knobs).run("headline")
    assert (source.realtime_hits, source.realtime_misses) == (0, 2)


def test_memo_hits_only_the_world_it_was_computed_on():
    source = WorldSource()
    world = source.world_for(CONFIG)
    Runner(CONFIG, source=source).run("headline")
    key = realtime_key(CONFIG, backend="event", n_shards=1)
    assert source.realtime_baseline(world, key) is not None
    # A rebuilt copy of the same world, and a world from another trace
    # pinned under the same config, both miss.
    assert source.realtime_baseline(build_world(CONFIG), key) is None
    other = build_world(CONFIG.variant(seed=77))
    assert source.realtime_baseline(other, key) is None


def test_e9_replays_the_baseline_once_per_shard(monkeypatch):
    calls = []
    engine = harness._run_realtime_engine

    def counting(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_realtime_engine", counting)
    set_default_exec_options(ExecOptions(shards=2))
    table = run_e9(CONFIG)
    assert len(calls) == 2
    assert len(table.rows) == len(E9_SYSTEMS)


def test_hit_telemetry_counts_only_the_executed_half():
    source = WorldSource()
    miss = Runner(CONFIG, source=source).run("headline")
    hit = Runner(CONFIG, source=source).run("headline")
    alone = Runner(CONFIG).run("prefetch")
    assert hit.metrics == miss.metrics
    assert hit.resources.users_total == alone.resources.users_total
    assert hit.resources.events_total == alone.resources.events_total
    assert miss.resources.events_total > hit.resources.events_total


def test_traced_run_after_a_hit_keeps_its_realtime_events():
    source = WorldSource()
    Runner(CONFIG, source=source).run("headline")
    traced = Runner(CONFIG, source=source,
                    obs=ObsOptions(trace=True)).run("headline")
    assert source.realtime_hits == 0
    assert any(event.args.get("component") == "realtime"
               for event in traced.trace_events)
    fresh = Runner(CONFIG, obs=ObsOptions(trace=True)).run("headline")
    assert traced.trace_events == fresh.trace_events


def test_memo_is_bounded_like_the_world_cache():
    source = WorldSource(cache=WorldCache(max_worlds=2))
    for train_days in (1, 2, 3):
        Runner(CONFIG.variant(train_days=train_days),
               source=source).run("realtime")
    Runner(CONFIG.variant(train_days=1), source=source).run("headline")
    Runner(CONFIG.variant(train_days=3), source=source).run("headline")
    assert (source.realtime_hits, source.realtime_misses) == (1, 1)
    source.clear()
    Runner(CONFIG.variant(train_days=3), source=source).run("headline")
    assert source.realtime_misses == 2


@pytest.mark.parametrize("backend", ["event", "batched"])
def test_halves_share_only_instruments_that_merge_exactly(backend):
    """Merging per-half totals equals the old per-shard fold only while
    no float sum is fed by both halves."""
    config = CONFIG.variant(faults=plan_for(0.5, CONFIG))
    runner = Runner(config, backend=backend)
    job = runner._jobs("headline", runner.source.world_for(config))[0]
    shard = run_shard(job)
    prefetch, realtime = shard.metrics, shard.realtime_metrics
    assert not set(prefetch.gauges) & set(realtime.gauges)
    for name in sorted(set(prefetch.counters) & set(realtime.counters)):
        assert type(prefetch.counters[name]) is int, name
        assert type(realtime.counters[name]) is int, name
    for name in sorted(set(prefetch.histograms) & set(realtime.histograms)):
        assert 0 in (prefetch.histograms[name].count,
                     realtime.histograms[name].count), name
