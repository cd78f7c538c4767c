"""Unit tests for the trace data model."""

import pytest

from repro.traces.schema import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    AdSlot,
    Session,
    Trace,
    UserTrace,
)


def test_session_derived_fields():
    s = Session("u1", "app", start=SECONDS_PER_DAY + 2 * SECONDS_PER_HOUR,
                duration=90.0)
    assert s.end == pytest.approx(s.start + 90.0)
    assert s.day == 1
    assert s.hour_of_day == pytest.approx(2.0)


def test_session_validation():
    with pytest.raises(ValueError):
        Session("u", "a", start=-1.0, duration=10.0)
    with pytest.raises(ValueError):
        Session("u", "a", start=0.0, duration=-1.0)


def test_slot_times():
    s = Session("u", "a", start=100.0, duration=95.0)
    assert s.slot_times(30.0) == [100.0, 130.0, 160.0, 190.0]
    with pytest.raises(ValueError):
        s.slot_times(0.0)


def test_adslot_indices():
    slot = AdSlot("u", "a", time=25 * SECONDS_PER_HOUR)
    assert slot.day == 1
    assert slot.hour_index == 25


def test_usertrace_rejects_foreign_sessions():
    trace = UserTrace("u1", "wp")
    with pytest.raises(ValueError):
        trace.add(Session("u2", "a", 0.0, 1.0))


def test_usertrace_slots_sorted():
    user = UserTrace("u", "wp")
    user.add(Session("u", "a", start=500.0, duration=35.0))
    user.add(Session("u", "a", start=0.0, duration=35.0))
    slots = user.slots({"a": 30.0})
    times = [s.time for s in slots]
    assert times == sorted(times)
    assert len(slots) == 4


def test_trace_accumulates_users_and_sessions():
    trace = Trace(n_days=2)
    trace.add_session(Session("u1", "a", 0.0, 10.0), platform="wp")
    trace.add_session(Session("u2", "a", 5.0, 10.0), platform="iphone")
    trace.add_session(Session("u1", "a", 50.0, 10.0))
    assert trace.n_users == 2
    assert trace.n_sessions() == 3
    assert trace.user("u2").platform == "iphone"
    assert trace.horizon == 2 * SECONDS_PER_DAY
    assert [s.user_id for s in trace.all_sessions()] == ["u1", "u1", "u2"]


def test_split_days_partitions_sessions():
    trace = Trace(n_days=4)
    trace.add_session(Session("u1", "a", 0.5 * SECONDS_PER_DAY, 10.0))
    trace.add_session(Session("u1", "a", 2.5 * SECONDS_PER_DAY, 10.0))
    trace.add_session(Session("u2", "a", 1.5 * SECONDS_PER_DAY, 10.0))
    train, test = trace.split_days(2)
    assert train.n_days == 2 and test.n_days == 4
    assert train.n_sessions() == 2
    assert test.n_sessions() == 1
    # Both halves keep the full user population.
    assert set(train.users) == set(test.users) == {"u1", "u2"}
    # Test timestamps remain absolute.
    assert next(iter(test.user("u1").sessions)).day == 2


def test_split_days_bounds():
    trace = Trace(n_days=3)
    with pytest.raises(ValueError):
        trace.split_days(0)
    with pytest.raises(ValueError):
        trace.split_days(3)
