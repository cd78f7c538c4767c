"""Sharded-runner API: determinism, merging, caching."""

from __future__ import annotations

import pytest

import repro.runner as runner_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import ShardJob, execute_shard
from repro.experiments.registry import run_experiment
from repro.faults.chaos import CoordinatorChaos
from repro.metrics.outcomes import compare
from repro.runner import (
    ExecOptions,
    Runner,
    RunResult,
    WorldCache,
    WorldSource,
    auto_shard_count,
    default_exec_options,
    partition_users,
    set_default_exec_options,
    shard_rng_tag,
)


@pytest.fixture(scope="module")
def shard_world(tiny_config):
    cache = WorldCache()
    return cache.get(tiny_config)


# ----------------------------------------------------------------------
# Shard layout
# ----------------------------------------------------------------------


def test_auto_shard_count_scales_with_population():
    assert auto_shard_count(40) == 1
    assert auto_shard_count(400) == 2
    assert auto_shard_count(4000) == 16     # clamped
    assert auto_shard_count(0) == 1


def test_partition_users_is_contiguous_and_near_even():
    uids = [f"u{i:03d}" for i in range(10)]
    chunks = partition_users(uids, 3)
    assert [len(c) for c in chunks] == [4, 3, 3]
    assert [uid for chunk in chunks for uid in chunk] == uids
    with pytest.raises(ValueError):
        partition_users(uids, 0)


def test_single_shard_uses_legacy_stream_names():
    assert shard_rng_tag(0, 1) == ""
    assert shard_rng_tag(2, 4) == "#shard2/4"


# ----------------------------------------------------------------------
# max_shards: the historical clamp-to-16 as a visible knob
# ----------------------------------------------------------------------


def test_auto_shard_count_honours_max_shards_override():
    assert auto_shard_count(4000) == 16                  # default clamp
    assert auto_shard_count(4000, max_shards=4) == 4
    assert auto_shard_count(4000, max_shards=64) == 20   # layout smaller
    assert auto_shard_count(400, max_shards=16) == 2     # cap not binding
    assert auto_shard_count(40, max_shards=1) == 1


def test_runner_max_shards_caps_resolved_layout(tiny_config, monkeypatch):
    monkeypatch.setattr(runner_module, "USERS_PER_SHARD", 10)
    assert Runner(tiny_config).resolve_shards(40) == 4
    assert Runner(tiny_config, max_shards=2).resolve_shards(40) == 2
    # Explicit shards= bypasses the auto layout (and its clamp) entirely.
    assert Runner(tiny_config, shards=3, max_shards=1).resolve_shards(40) == 3
    with pytest.raises(ValueError):
        Runner(tiny_config, max_shards=0)


def test_auto_clamp_emits_counter_without_touching_results(
        tiny_config, shard_world, monkeypatch):
    """When the clamp actually bites, the run carries the obs counter;
    the merged outcome still equals an explicitly single-sharded run."""
    monkeypatch.setattr(runner_module, "USERS_PER_SHARD", 10)
    clamped = Runner(tiny_config, max_shards=1,
                     world=shard_world).run("realtime")
    assert clamped.n_shards == 1
    assert clamped.metrics.counters["runner.auto_shards_clamped"] == 1.0
    explicit = Runner(tiny_config, shards=1,
                      world=shard_world).run("realtime")
    assert "runner.auto_shards_clamped" not in explicit.metrics.counters
    assert clamped.realtime == explicit.realtime


def test_exec_options_default_reaches_new_runners(tiny_config):
    chaos = CoordinatorChaos(seed=1, kill_prob=0.5)
    set_default_exec_options(ExecOptions(parallelism=3, backend="batched",
                                         shards=2, max_shards=3,
                                         chaos=chaos))
    runner = Runner(tiny_config)
    assert runner.parallelism == 3 and runner.backend == "batched"
    assert runner.shards == 2 and runner.max_shards == 3
    assert runner.chaos == chaos
    # Explicit arguments beat the installed default.
    explicit = Runner(tiny_config, parallelism=1, backend="event",
                      max_shards=5)
    assert explicit.parallelism == 1 and explicit.backend == "event"
    assert explicit.max_shards == 5 and explicit.shards == 2
    set_default_exec_options(None)
    quiet = Runner(tiny_config)
    assert quiet.parallelism == 1 and quiet.backend == "event"
    assert quiet.shards is None and quiet.max_shards is None
    # An empty chaos plan can never fire: the run stays in-process.
    assert Runner(tiny_config, chaos=CoordinatorChaos()).chaos is None
    for bad in ({"parallelism": 0}, {"backend": "quantum"},
                {"shards": 0}, {"max_shards": 0}):
        with pytest.raises(ValueError):
            ExecOptions(**bad)
    with pytest.raises(ValueError, match="quantum"):
        Runner(tiny_config, backend="quantum")


def test_run_experiment_scopes_jobs_and_backend(tiny_config, tiny_world,
                                               monkeypatch):
    """``run_experiment``'s ``jobs``/``backend`` reach every Runner the
    experiment builds, on top of the installed default, and that
    default is back afterwards — after a return and after a raise."""
    installed = ExecOptions(max_shards=4)
    set_default_exec_options(installed)
    seen = []
    original = Runner.run

    def run(self, system="headline"):
        seen.append((self.parallelism, self.backend, self.max_shards,
                     default_exec_options()))
        return original(self, system)

    monkeypatch.setattr(Runner, "run", run)
    source = WorldSource(world=tiny_world)
    run_experiment("e9", tiny_config, jobs=2, backend="batched",
                   source=source)
    scoped = ExecOptions(parallelism=2, backend="batched", max_shards=4)
    assert seen == [(2, "batched", 4, scoped)] * 4     # realtime + 3 rows
    assert default_exec_options() is installed

    def crash(self, system="headline"):
        raise RuntimeError("shard failed")

    monkeypatch.setattr(Runner, "run", crash)
    with pytest.raises(RuntimeError, match="shard failed"):
        run_experiment("e9", tiny_config, jobs=2, backend="batched",
                       source=source)
    assert default_exec_options() is installed


# ----------------------------------------------------------------------
# Determinism: the acceptance criteria
# ----------------------------------------------------------------------


def test_parallelism_does_not_change_results(tiny_config, shard_world):
    """parallelism=1 vs parallelism=4 on the same 4-shard layout must be
    bit-for-bit identical — parallelism is purely an execution knob."""
    serial = Runner(tiny_config, parallelism=1, shards=4,
                    world=shard_world).run("headline")
    parallel = Runner(tiny_config, parallelism=4, shards=4,
                      world=shard_world).run("headline")
    assert serial.n_shards == parallel.n_shards == 4
    assert serial.prefetch == parallel.prefetch
    assert serial.realtime == parallel.realtime
    assert serial.comparison == parallel.comparison


def test_runner_is_deterministic_across_calls(tiny_config, shard_world):
    a = Runner(tiny_config, shards=2, world=shard_world).run("prefetch")
    b = Runner(tiny_config, shards=2, world=shard_world).run("prefetch")
    assert a.prefetch == b.prefetch


def test_single_shard_matches_legacy_serial_run(tiny_config, shard_world):
    """shards=1 reproduces the pre-sharding serial harness exactly."""
    result = Runner(tiny_config, shards=1, world=shard_world).run("headline")
    execution = execute_shard(ShardJob.for_world(tiny_config, shard_world))
    legacy = compare(execution.prefetch.outcome, execution.realtime)
    assert result.prefetch.energy == legacy.prefetch.energy
    assert result.prefetch.revenue == legacy.prefetch.revenue
    assert result.prefetch.sla.n_sales == legacy.prefetch.sla.n_sales
    assert result.prefetch.sla.n_violated == legacy.prefetch.sla.n_violated
    assert result.prefetch.sla.mean_latency_s == pytest.approx(
        legacy.prefetch.sla.mean_latency_s)
    assert result.realtime == legacy.realtime


def test_shard_totals_conserve_slots(tiny_config, shard_world):
    """Sharding partitions users, so population-wide display counts from
    a sharded run cover the same slots as the single-shard run."""
    sharded = Runner(tiny_config, shards=4,
                     world=shard_world).run("prefetch").prefetch
    single = Runner(tiny_config, shards=1,
                    world=shard_world).run("prefetch").prefetch
    assert sharded.total_slots == single.total_slots
    assert sharded.energy.n_users == single.energy.n_users


def test_run_result_value_and_validation(tiny_config, shard_world):
    result = Runner(tiny_config, world=shard_world).run("realtime")
    assert isinstance(result, RunResult)
    assert result.value is result.realtime
    assert result.prefetch is None and result.comparison is None
    assert result.elapsed_s > 0
    with pytest.raises(ValueError):
        Runner(tiny_config, world=shard_world).run("nonsense")
    with pytest.raises(ValueError):
        Runner(tiny_config, parallelism=0)
    with pytest.raises(ValueError):
        Runner(tiny_config, shards=0)
    with pytest.raises(ValueError):
        Runner(tiny_config, backend="quantum")


def test_runner_owns_explicit_world_source(tiny_config, shard_world):
    """Runner resolves worlds through its own WorldSource — no module
    state; an explicit source is honoured as given."""
    source = WorldSource(world=shard_world)
    runner = Runner(tiny_config, source=source)
    assert runner.source is source
    result = runner.run("realtime")
    assert result.realtime is not None
    # Convenience params build a private source.
    implicit = Runner(tiny_config, world=shard_world)
    assert implicit.source.world is shard_world
    with pytest.raises(ValueError, match="not both"):
        Runner(tiny_config, source=source, world=shard_world)


# ----------------------------------------------------------------------
# WorldCache
# ----------------------------------------------------------------------


def test_world_cache_hits_and_lru_bound():
    cache = WorldCache(max_worlds=2)
    configs = [ExperimentConfig(n_users=10, n_days=4, train_days=2, seed=s)
               for s in (1, 2, 3)]
    first = cache.get(configs[0])
    assert cache.get(configs[0]) is first
    assert cache.hits == 1 and cache.misses == 1
    cache.get(configs[1])
    cache.get(configs[2])          # evicts configs[0]
    assert len(cache) == 2
    assert cache.get(configs[0]) is not first  # rebuilt after eviction
    assert cache.misses == 4


def test_world_cache_clear():
    cache = WorldCache()
    config = ExperimentConfig(n_users=10, n_days=4, train_days=2, seed=5)
    cache.get(config)
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


# ----------------------------------------------------------------------
# API redesign: keyword-only config and removed legacy wrappers
# ----------------------------------------------------------------------


def test_legacy_wrappers_are_gone():
    """The pre-1.1 module-level wrappers were removed after their
    deprecation cycle; the shard cores and Runner are the API."""
    import repro
    import repro.experiments.harness as harness
    for name in ("run_prefetch", "run_realtime", "run_headline",
                 "run_prefetch_shard", "run_realtime_shard",
                 "run_prefetch_instrumented", "get_world",
                 "clear_world_cache"):
        assert not hasattr(harness, name)
        assert not hasattr(repro, name)


def test_experiment_config_rejects_positional_args():
    with pytest.raises(TypeError):
        ExperimentConfig(7, 40)  # noqa: must use keywords


def test_runner_exported_from_package_root():
    import repro
    assert repro.Runner is Runner
    assert repro.WorldCache is WorldCache
    assert repro.RunResult is RunResult
