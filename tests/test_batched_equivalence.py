"""Property-based equivalence: the batched backend vs the event engine.

:data:`repro.sim.batched.DEFAULT_CONTRACT` claims the batched backend
reproduces the event engine bit for bit on every reported metric. The
backends differ only in the device, so these tests attack that claim
from both ends — :class:`~repro.sim.batched.LogDevice` against the
event engine's :class:`~repro.client.device.Device` on randomized
transfer schedules, and whole headline executions across randomized
configs, seeds, and fault plans at parallelism 1 and 4. The one ad
server is held to its heap-scan oracle in ``test_adserver_oracle.py``;
its dispatch curve's memo is checked here against the exact estimator.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.client.device import Device
from repro.core.showcurve import DispatchCurve, WindowedShowCurveEstimator
from repro.experiments.config import ExperimentConfig
from repro.faults.plan import FaultPlan
from repro.radio.profiles import THREE_G, WIFI
from repro.runner import Runner
from repro.sim.batched import (
    DEFAULT_CONTRACT,
    LogDevice,
    assert_equivalent,
    contract_violations,
    prefetch_metrics,
    realtime_metrics,
)

# ----------------------------------------------------------------------
# LogDevice vs Device: the radio settlement recurrence
# ----------------------------------------------------------------------

_transfer_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0,
                  allow_nan=False, allow_infinity=False),     # request gap
        st.sampled_from(["ad", "ad+latency", "app", "stream"]),
        st.integers(min_value=1, max_value=200_000),          # nbytes
    ),
    min_size=1, max_size=40)


@given(steps=_transfer_steps, wifi=st.booleans(),
       horizon_extra=st.floats(min_value=0.0, max_value=60.0,
                               allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_log_device_matches_event_device(steps, wifi, horizon_extra):
    """Identical transfer schedules settle to bitwise-equal energy."""
    profile = WIFI if wifi else THREE_G
    event = Device("u", profile)
    batched = LogDevice("u", profile)
    now = 0.0
    for gap, kind, nbytes in steps:
        now += gap
        if kind == "ad":
            event.ad_fetch(now, nbytes)
            batched.ad_fetch(now, nbytes)
        elif kind == "ad+latency":
            event.ad_fetch(now, nbytes, extra_s=7.5)
            batched.ad_fetch(now, nbytes, extra_s=7.5)
        elif kind == "app":
            event.app_request(now, nbytes)
            batched.app_request(now, nbytes)
        else:
            duration = nbytes / 50_000.0
            event.app_streaming(now, duration)
            batched.app_streaming(now, duration)
    horizon = now + horizon_extra
    event.finish(horizon)
    batched.finish(horizon)
    # Bitwise equality — the contract's EXACT tier, not approx.
    assert batched.energy_by_tag() == event.radio.energy_by_tag()
    assert batched.wakeups == event.wakeups
    assert batched.transfer_count == event.radio.transfer_count
    assert batched.ad_bytes == event.ad_bytes
    assert batched.app_bytes == event.app_bytes


def test_log_device_refuses_timeline_instrumentation():
    with pytest.raises(ValueError, match="timeline"):
        LogDevice("u", THREE_G, keep_timeline=True)


# ----------------------------------------------------------------------
# DispatchCurve's saturated-bucket memo vs the exact estimator
# ----------------------------------------------------------------------

_observations = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=12.0,
                        allow_nan=False, allow_infinity=False),
              st.integers(min_value=0, max_value=15)),
    min_size=0, max_size=200)

_queries = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=12.0,
                        allow_nan=False, allow_infinity=False),
              st.integers(min_value=0, max_value=12)),
    min_size=1, max_size=40)


@given(obs=_observations, queries=_queries)
@settings(max_examples=50, deadline=None)
def test_cached_curve_matches_exact_curve(obs, queries):
    """Memoized lookups equal the exact estimator on every query."""
    windowed = WindowedShowCurveEstimator(max_window=4, min_samples=5)
    for predicted, actual in obs:
        windowed.observe("u", predicted, actual)
    curve = DispatchCurve(windowed, sla_window=4)

    def check() -> None:
        for predicted, j in queries:
            sla = windowed.at_least(predicted, j, curve.sla_window)
            assert curve.sla(predicted, j) == sla
            assert curve.at_least(predicted, j) == sla
            assert (curve.epoch(predicted, j)
                    == windowed.at_least(predicted, j, curve.dup_window))

    check()
    check()   # answered from the memo where the bucket is saturated
    # New observations invalidate the memo; answers must track.
    for predicted, actual in obs[:20]:
        windowed.observe("v", predicted, actual + 1)
    curve.clear_memo()
    check()


# ----------------------------------------------------------------------
# Whole-shard equivalence: randomized worlds, seeds, and fault plans
# ----------------------------------------------------------------------

_fault_plans = st.one_of(
    st.just(FaultPlan()),
    st.builds(FaultPlan,
              loss_prob=st.sampled_from([0.0, 0.15]),
              outage_rate_per_day=st.sampled_from([0.0, 2.0]),
              outage_duration_s=st.just(600.0),
              latency_mean_s=st.sampled_from([0.0, 10.0]),
              churn_prob=st.sampled_from([0.0, 0.05])))

_world_params = st.fixed_dictionaries({
    "n_users": st.integers(min_value=5, max_value=12),
    "seed": st.integers(min_value=0, max_value=10_000),
    "epsilon": st.sampled_from([0.02, 0.1, 0.3]),
    "max_replicas": st.sampled_from([1, 2, 4]),
    "wifi_fraction": st.sampled_from([0.0, 0.4]),
    "rescue_batch": st.sampled_from([0, 1, 4]),
})


@given(params=_world_params, faults=_fault_plans)
@example(params={"n_users": 8, "seed": 7, "epsilon": 0.1, "max_replicas": 2,
                 "wifi_fraction": 0.0, "rescue_batch": 0},
         faults=FaultPlan())
@settings(max_examples=6, deadline=None)
def test_backends_agree_on_random_worlds(params, faults):
    """Full headline runs are bit-identical across backends, and the
    flattened metrics satisfy the published tolerance contract. The
    pinned example turns rescue off (``rescue_batch=0``), where the
    batched server must rescue nothing, as the event server does."""
    config = ExperimentConfig(n_days=4, train_days=2, faults=faults,
                              **params)
    event = Runner(config, backend="event").run("headline")
    batched = Runner(config, backend="batched").run("headline")
    assert batched.prefetch == event.prefetch
    assert batched.realtime == event.realtime
    assert batched.comparison == event.comparison
    assert_equivalent(
        {**prefetch_metrics(event.prefetch),
         **realtime_metrics(event.realtime)},
        {**prefetch_metrics(batched.prefetch),
         **realtime_metrics(batched.realtime)})
    # Backend parity of the throughput counters: both backends drive
    # the same orchestration loops, so the totals agree exactly.
    for name in ("throughput.users_total", "throughput.events_total"):
        assert event.metrics.counters[name] > 0
        assert (batched.metrics.counters[name]
                == event.metrics.counters[name])


def test_backends_agree_under_sharded_parallel_runs(tiny_config, tiny_world):
    """Equivalence holds shard by shard, at jobs 1 and jobs 4 alike."""
    results = {}
    for backend in ("event", "batched"):
        serial = Runner(tiny_config, parallelism=1, shards=4,
                        backend=backend, world=tiny_world).run("headline")
        parallel = Runner(tiny_config, parallelism=4, shards=4,
                          backend=backend, world=tiny_world).run("headline")
        assert serial.prefetch == parallel.prefetch
        assert serial.realtime == parallel.realtime
        results[backend] = serial
    assert results["batched"].prefetch == results["event"].prefetch
    assert results["batched"].realtime == results["event"].realtime
    assert results["batched"].comparison == results["event"].comparison
    assert not contract_violations(
        prefetch_metrics(results["event"].prefetch),
        prefetch_metrics(results["batched"].prefetch))
    for name in ("throughput.users_total", "throughput.events_total"):
        assert results["event"].metrics.counters[name] > 0
        assert (results["batched"].metrics.counters[name]
                == results["event"].metrics.counters[name])


def test_contract_digest_is_pinned_in_batched_manifests(tiny_config,
                                                        tiny_world):
    """A batched run records the contract hash it claims to satisfy."""
    batched = Runner(tiny_config, backend="batched",
                     world=tiny_world).run("realtime")
    event = Runner(tiny_config, backend="event",
                   world=tiny_world).run("realtime")
    assert batched.record.backend == "batched"
    assert batched.record.equivalence_contract_hash == \
        DEFAULT_CONTRACT.digest()
    assert event.record.backend == "event"
    assert event.record.equivalence_contract_hash is None


def test_contract_detects_out_of_tolerance_metrics():
    base = {"prefetch.energy.ad_joules": 100.0, "prefetch.syncs": 5.0}
    # Within FLOAT_SUM headroom on the float metric: passes.
    assert not contract_violations(
        base, {**base, "prefetch.energy.ad_joules": 100.0 * (1 + 1e-12)})
    # Integer counters are EXACT: any drift is a violation.
    assert contract_violations(base, {**base, "prefetch.syncs": 6.0})
    # Past the float tolerance: reported with both values.
    problems = contract_violations(
        base, {**base, "prefetch.energy.ad_joules": 101.0})
    assert problems and "ad_joules" in problems[0]
    with pytest.raises(AssertionError, match="equivalence"):
        assert_equivalent(base, {**base, "prefetch.syncs": 6.0})
