"""Unit tests for :mod:`repro.faults`: plans, injectors, determinism."""

import json

import pytest

from repro.faults.injector import FaultInjector, make_injector
from repro.faults.plan import FaultPlan

DAY = 86400.0


# ----------------------------------------------------------------------
# FaultPlan: validation, JSON round-trip, hashing
# ----------------------------------------------------------------------


def test_default_plan_is_empty_and_resilience_knobs_do_not_count():
    assert FaultPlan().is_empty
    assert FaultPlan(max_retries=9, backoff_base_s=1.0).is_empty
    assert not FaultPlan(loss_prob=0.1).is_empty
    assert not FaultPlan(server_outages=((0.0, 10.0),)).is_empty
    assert not FaultPlan(churn_prob=0.01).is_empty


@pytest.mark.parametrize("bad", [
    {"loss_prob": -0.1}, {"loss_prob": 1.0},
    {"outage_rate_per_day": -1.0}, {"outage_duration_s": 0.0},
    {"churn_prob": 1.5}, {"latency_mean_s": -1.0},
    {"max_retries": -1}, {"backoff_base_s": 0.0},
    {"backoff_jitter": -0.5}, {"failed_attempt_bytes": -1},
    {"server_outages": ((10.0, 10.0),)},
    {"server_outages": ((10.0, 5.0),)},
    {"server_outages": ((0.0, 20.0), (10.0, 30.0))},   # overlapping
    {"server_outages": ((50.0, 60.0), (0.0, 10.0))},   # unsorted
])
def test_plan_validation_rejects(bad):
    with pytest.raises(ValueError):
        FaultPlan(**bad)


def test_plan_json_round_trip_preserves_equality_and_digest():
    plan = FaultPlan(loss_prob=0.2, outage_rate_per_day=3.0,
                     server_outages=((100.0, 200.0), (300.0, 400.0)),
                     latency_mean_s=12.0, churn_prob=0.05, max_retries=2)
    payload = json.loads(json.dumps(plan.to_jsonable()))
    restored = FaultPlan.from_jsonable(payload)
    assert restored == plan
    assert restored.digest() == plan.digest()


def test_plan_from_jsonable_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown FaultPlan field"):
        FaultPlan.from_jsonable({"loss_prob": 0.1, "typo_field": 1})


def test_plan_from_json_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"loss_prob": 0.25,
                                "server_outages": [[10.0, 20.0]]}))
    plan = FaultPlan.from_json_file(path)
    assert plan.loss_prob == 0.25
    assert plan.server_outages == ((10.0, 20.0),)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        FaultPlan.from_json_file(path)


@pytest.mark.parametrize("text, named", [
    ('{"loss_prob": "0.1"}', "key 'loss_prob' must be a number"),
    ('{"max_retries": 2.5}', "key 'max_retries' must be an integer"),
    ('{"server_outages": [[0.0, "10"]]}', "key 'server_outages'"),
    ('{"loss_prob": 0.1', "not valid JSON"),
])
def test_plan_file_rejects_malformed_input(tmp_path, text, named):
    path = tmp_path / "plan.json"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        FaultPlan.from_json_file(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ") and named in message
    assert "\n" not in message


def test_digest_distinguishes_plans():
    assert FaultPlan().digest() != FaultPlan(loss_prob=0.1).digest()
    assert (FaultPlan(loss_prob=0.1).digest()
            == FaultPlan(loss_prob=0.1).digest())


def test_variant_replaces_fields():
    plan = FaultPlan(loss_prob=0.1)
    assert plan.variant(loss_prob=0.2).loss_prob == 0.2
    assert plan.loss_prob == 0.1


# ----------------------------------------------------------------------
# Injector construction
# ----------------------------------------------------------------------


def test_make_injector_returns_none_for_empty_plans():
    assert make_injector(None, seed=1, horizon=DAY) is None
    assert make_injector(FaultPlan(), seed=1, horizon=DAY) is None
    assert make_injector(FaultPlan(loss_prob=0.5), 1, DAY) is not None


def test_injector_rejects_empty_plan_directly():
    with pytest.raises(ValueError, match="non-empty plan"):
        FaultInjector(FaultPlan(), seed=1, horizon=DAY)


# ----------------------------------------------------------------------
# Determinism: the tentpole property
# ----------------------------------------------------------------------

FULL_PLAN = FaultPlan(loss_prob=0.3, outage_rate_per_day=4.0,
                      outage_duration_s=600.0,
                      server_outages=((3 * 3600.0, 4 * 3600.0),),
                      latency_mean_s=10.0, churn_prob=0.3)


def _user_history(injector, uid, times):
    faults = injector.for_user(uid)
    return ([faults.attempt(t) for t in times],
            faults.dark_from,
            [faults.sync_delay() for _ in range(3)],
            [faults.backoff_wait(k) for k in (1, 2, 3)])


def test_user_faults_depend_only_on_plan_seed_and_uid():
    """A user's fault history must not depend on which other users exist
    or in what order they were built — the property that makes fault
    runs invariant to shard layout."""
    times = [100.0 * k for k in range(200)]
    a = FaultInjector(FULL_PLAN, seed=7, horizon=2 * DAY)
    b = FaultInjector(FULL_PLAN, seed=7, horizon=2 * DAY)
    # Different construction order, different co-resident users.
    for uid in ("u001", "u002", "u003"):
        a.for_user(uid)
    b.for_user("u999")
    assert (_user_history(a, "u042", times)
            == _user_history(b, "u042", times))


def test_different_seeds_give_different_histories():
    times = [100.0 * k for k in range(200)]
    a = FaultInjector(FULL_PLAN, seed=7, horizon=2 * DAY)
    b = FaultInjector(FULL_PLAN, seed=8, horizon=2 * DAY)
    assert (_user_history(a, "u042", times)
            != _user_history(b, "u042", times))


def test_loss_draws_fire_at_roughly_the_configured_rate():
    plan = FaultPlan(loss_prob=0.25)
    injector = FaultInjector(plan, seed=3, horizon=DAY)
    faults = injector.for_user("u1")
    n = 4000
    failures = sum(not faults.attempt(float(k)) for k in range(n))
    assert failures / n == pytest.approx(0.25, abs=0.03)
    assert faults.plan is plan


def test_outage_windows_block_attempts_deterministically():
    plan = FaultPlan(outage_rate_per_day=6.0, outage_duration_s=1800.0)
    injector = FaultInjector(plan, seed=11, horizon=2 * DAY)
    faults = injector.for_user("u1")
    starts, ends = faults._outage_starts, faults._outage_ends
    assert starts, "6/day over 2 days must produce windows"
    assert all(s < e for s, e in zip(starts, ends))
    assert starts == sorted(starts)
    mid = (starts[0] + ends[0]) / 2.0
    assert faults.in_outage(mid) and not faults.attempt(mid)
    assert not faults.in_outage(starts[0] - 1.0)
    assert not faults.in_outage(ends[0] + 1e-9) or faults.in_outage(mid)


def test_churn_darkens_some_users_permanently():
    plan = FaultPlan(churn_prob=0.5)
    injector = FaultInjector(plan, seed=5, horizon=DAY)
    dark_from = [injector.for_user(f"u{i:03d}").dark_from
                 for i in range(60)]
    churned = [d for d in dark_from if d != float("inf")]
    assert 10 < len(churned) < 50          # ~50% at this seed scale
    assert all(0.0 <= d <= DAY for d in churned)
    faults = injector.for_user("u000")
    if faults.dark_from != float("inf"):
        assert not faults.dark(faults.dark_from - 1.0)
        assert faults.dark(faults.dark_from)
        assert not faults.attempt(faults.dark_from + 1.0)


def test_server_down_follows_scheduled_windows_exactly():
    plan = FaultPlan(server_outages=((100.0, 200.0), (500.0, 600.0)))
    injector = FaultInjector(plan, seed=1, horizon=DAY)
    assert not injector.server_down(99.9)
    assert injector.server_down(100.0)
    assert injector.server_down(199.9)
    assert not injector.server_down(200.0)
    assert injector.server_down(550.0)
    assert not injector.server_down(700.0)
    faults = injector.for_user("u1")
    assert not faults.attempt(150.0)       # blocked by the blackout
    assert faults.attempt(250.0)


def test_backoff_grows_exponentially_and_caps():
    plan = FaultPlan(loss_prob=0.5, backoff_base_s=2.0,
                     backoff_cap_s=30.0, backoff_jitter=0.5)
    injector = FaultInjector(plan, seed=9, horizon=DAY)
    faults = injector.for_user("u1")
    w1 = faults.backoff_wait(1)
    w2 = faults.backoff_wait(2)
    assert 2.0 <= w1 <= 3.0                # base * [1, 1.5)
    assert 4.0 <= w2 <= 6.0
    assert faults.backoff_wait(10) == 30.0  # capped


def test_zero_jitter_backoff_is_exact():
    plan = FaultPlan(loss_prob=0.5, backoff_base_s=4.0,
                     backoff_cap_s=1e9, backoff_jitter=0.0)
    faults = FaultInjector(plan, seed=2, horizon=DAY).for_user("u1")
    assert faults.backoff_wait(1) == 4.0
    assert faults.backoff_wait(3) == 16.0
