"""Shard-boundary payloads survive a pickle round trip.

Everything that crosses a worker's pipe — the :class:`ShardJob` a
worker runs, the traced :class:`ShardResult` it sends back, the
``repro.dist`` control messages, the fault and chaos plans, the metric
snapshots and accumulators the shard fold merges, and the ledger's
:class:`RunRecord` — is built here fully populated, pickled, and
compared with the original. Each root's dataclass contract (``frozen``,
``kw_only``, ``slots``) is asserted by introspection.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import typing

import numpy as np
import pytest

from repro.dist.protocol import (
    JobEnvelope,
    JobNack,
    ResultEnvelope,
    WorkerReady,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.e13_faults import plan_for
from repro.experiments.harness import ShardJob
from repro.faults.chaos import CoordinatorChaos
from repro.faults.plan import FaultPlan
from repro.metrics import accumulators
from repro.obs.ledger import RunRecord
from repro.obs.live import ShardBeat
from repro.obs.metrics import N_BINS, HistogramSnapshot, MetricsSnapshot
from repro.runner import Runner, run_shard

CONFIG = ExperimentConfig(n_users=12, n_days=4, train_days=2, seed=23)

#: Each root and the dataclass flags its contract requires.
SERIALIZATION_ROOTS: dict[type, frozenset[str]] = {
    ShardJob: frozenset({"kw_only", "slots"}),
    RunRecord: frozenset({"frozen"}),
    FaultPlan: frozenset({"frozen", "kw_only"}),
    MetricsSnapshot: frozenset(),
    WorkerReady: frozenset({"frozen", "kw_only"}),
    JobEnvelope: frozenset({"frozen", "kw_only"}),
    JobNack: frozenset({"frozen", "kw_only"}),
    ResultEnvelope: frozenset({"frozen", "kw_only"}),
    ShardBeat: frozenset({"frozen"}),
    CoordinatorChaos: frozenset({"frozen", "kw_only"}),
    **{cls: frozenset() for _, cls in inspect.getmembers(
        accumulators, inspect.isclass)
       if cls.__module__ == accumulators.__name__},
}


def contract_gaps(cls: type, required: frozenset[str]) -> list[str]:
    """The contract flags ``cls`` lacks (empty when it holds)."""
    if not dataclasses.is_dataclass(cls):
        return ["dataclass"]
    present = {
        "frozen": cls.__dataclass_params__.frozen,
        "kw_only": all(f.kw_only for f in dataclasses.fields(cls)),
        "slots": "__slots__" in cls.__dict__,
    }
    return sorted(flag for flag in required if not present[flag])


def same(a: object, b: object) -> bool:
    """Structural equality that also compares numpy arrays exactly."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def round_trip(value: object) -> object:
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def populated_accumulator(cls: type) -> object:
    """An instance whose every (scalar) field is off its default."""
    hints = typing.get_type_hints(cls)
    values = {}
    for i, f in enumerate(dataclasses.fields(cls), start=1):
        kind = hints[f.name]
        assert kind in (int, float), f"{cls.__name__}.{f.name}: {kind}"
        values[f.name] = kind(i) + (0.25 if kind is float else 0)
    return cls(**values)


@pytest.fixture(scope="module")
def traced_shard():
    """A real headline job (faults on, two shards) and its traced result."""
    config = CONFIG.variant(faults=plan_for(0.3, CONFIG))
    runner = Runner(config, shards=2)
    job = runner._jobs("headline", runner.source.world_for(config))[1]
    return job, run_shard(job, trace=True)


def instances(traced_shard) -> dict[type, object]:
    job, result = traced_shard
    record = RunRecord.for_run(
        job.config, system="headline", n_shards=2, parallelism=2,
        backend="batched", experiment="headline",
        counter_totals={"radio.wakeups": 7.0},
        metrics={"headline.energy_savings": 0.5},
        metrics_digest="ab" * 32)
    histogram = HistogramSnapshot(counts=(1,) * N_BINS, total=4.5, count=3,
                                  min_value=0.5, max_value=2.0)
    return {
        ShardJob: job,
        RunRecord: dataclasses.replace(record, seq=9),
        FaultPlan: FaultPlan(
            loss_prob=0.1, outage_rate_per_day=0.5, outage_duration_s=60.0,
            server_outages=((10.0, 20.0), (30.0, 45.0)),
            latency_mean_s=0.3, churn_prob=0.05, max_retries=2,
            backoff_base_s=1.0, backoff_cap_s=30.0, backoff_jitter=0.2,
            failed_attempt_bytes=64),
        MetricsSnapshot: MetricsSnapshot(
            counters={"client.syncs": 3.0}, gauges={"radio.rss": 1.5},
            histograms={"sync.latency_s": histogram}),
        WorkerReady: WorkerReady(worker_id="w1", pid=4321, protocol=9),
        JobEnvelope: JobEnvelope(job_id="shard-1", shard_index=1,
                                 n_shards=2, attempt=2),
        JobNack: JobNack(worker_id="w1", job_id="shard-1", shard_index=1,
                         attempt=1, reason="ValueError: boom"),
        ResultEnvelope: ResultEnvelope(worker_id="w1", job_id="shard-1",
                                       shard_index=1, attempt=1,
                                       elapsed_s=0.75),
        ShardBeat: ShardBeat(shard_index=1, n_shards=2, seq=5,
                             watermark_s=3600.0, done=2, total=4, users=6,
                             events_done=120, counters={"client.syncs": 2.0},
                             rss_bytes=1 << 20, final=True, failed=True),
        CoordinatorChaos: CoordinatorChaos(
            seed=5, kill_prob=0.1, duplicate_prob=0.2, delay_mean_s=0.01,
            first_attempt_only=False),
        **{cls: populated_accumulator(cls) for cls in SERIALIZATION_ROOTS
           if cls.__module__ == accumulators.__name__},
    }


def test_every_root_has_a_populated_instance(traced_shard):
    assert set(instances(traced_shard)) == set(SERIALIZATION_ROOTS)
    assert len([c for c in SERIALIZATION_ROOTS
                if c.__module__ == accumulators.__name__]) >= 4


@pytest.mark.parametrize("root", SERIALIZATION_ROOTS,
                         ids=lambda cls: cls.__name__)
def test_root_round_trips_through_pickle(root, traced_shard):
    value = instances(traced_shard)[root]
    # "Fully populated": no field is left at a None placeholder.
    for f in dataclasses.fields(value):
        assert getattr(value, f.name) is not None, f.name
    assert same(round_trip(value), value)


@pytest.mark.parametrize("root", SERIALIZATION_ROOTS,
                         ids=lambda cls: cls.__name__)
def test_root_keeps_its_dataclass_contract(root):
    assert contract_gaps(root, SERIALIZATION_ROOTS[root]) == []


def test_traced_shard_result_round_trips(traced_shard):
    _, result = traced_shard
    assert result.prefetch is not None and result.realtime is not None
    assert result.events and result.realtime_metrics is not None
    assert result.metrics.counters
    assert same(round_trip(result), result)


def test_a_lambda_in_a_job_field_fails_the_round_trip(traced_shard):
    job, _ = traced_shard
    broken = dataclasses.replace(job, timelines={"u0": lambda: None})
    with pytest.raises((pickle.PicklingError, AttributeError)):
        round_trip(broken)


def test_a_dropped_contract_flag_is_caught():
    @dataclasses.dataclass(slots=True)
    class Record:
        seed: int = 0

    assert contract_gaps(Record, frozenset({"frozen", "kw_only"})) == [
        "frozen", "kw_only"]
    assert contract_gaps(int, frozenset()) == ["dataclass"]


def test_same_sees_array_differences():
    assert same(np.arange(3), np.arange(3))
    assert not same(np.arange(3), np.arange(3.0))
    assert not same({"a": np.arange(3)}, {"a": np.arange(1, 4)})
