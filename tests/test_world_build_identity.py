"""World build is pinned bit for bit.

``DiurnalProfile.sample_hour`` inverts a per-profile CDF and
``compile_timeline`` lays a user's events out as arrays. Both replaced
slower code that the rest of the repository's results were produced
with; the earlier implementations are kept here as oracles, and the
seed-7 worlds of the three pinned benchmark shapes are pinned by digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.timeline import (
    KIND_APP,
    KIND_APP_STREAM,
    KIND_SLOT,
    KIND_SLOT_START,
    ClientTimeline,
    compile_timeline,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import build_world
from repro.radio.profiles import LTE, THREE_G, WIFI, RadioProfile
from repro.sim.rng import RngRegistry
from repro.traces.diurnal import HOURS_PER_DAY, DiurnalProfile, random_profile
from repro.traces.generator import TraceConfig, TraceGenerator
from repro.traces.schema import Session, UserTrace
from repro.workloads.appstore import TOP15, AppProfile
from repro.workloads.population import PopulationConfig, build_population

SEEDS = range(40)


# ----------------------------------------------------------------------
# Oracles: the earlier per-draw and per-session implementations
# ----------------------------------------------------------------------


def _choice_sample_hour(profile: DiurnalProfile, rng: np.random.Generator) -> float:
    hour = int(rng.choice(HOURS_PER_DAY, p=profile.hourly_pmf()))
    return hour + float(rng.uniform(0.0, 1.0))


def _loop_compile_timeline(user: UserTrace, apps, profile: RadioProfile) -> ClientTimeline:
    app_index = {a.app_id: i for i, a in enumerate(apps)}
    times: list[float] = []
    kinds: list[int] = []
    payload: list[float] = []
    for session in user.sessions:
        app = apps[app_index[session.app_id]]
        for i, t in enumerate(session.slot_times(app.ad_refresh_s)):
            times.append(t)
            kinds.append(KIND_SLOT_START if i == 0 else KIND_SLOT)
            payload.append(float(app_index[session.app_id]))
        if app.app_request_interval_s is None:
            continue
        if app.app_request_interval_s < profile.high_tail_time:
            times.append(session.start)
            kinds.append(KIND_APP_STREAM)
            payload.append(session.duration)
        else:
            interval = app.app_request_interval_s
            for k in range(1 + int(session.duration // interval)):
                times.append(session.start + k * interval)
                kinds.append(KIND_APP)
                payload.append(float(app.app_request_bytes))
    order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
    return ClientTimeline(
        user_id=user.user_id,
        platform=user.platform,
        times=np.asarray(times, dtype=np.float64)[order],
        kinds=np.asarray(kinds, dtype=np.int8)[order],
        payload=np.asarray(payload, dtype=np.float64)[order],
    )


def _timeline_bytes(timeline: ClientTimeline) -> tuple:
    return tuple((a.dtype.str, a.shape, a.tobytes())
                 for a in (timeline.times, timeline.kinds, timeline.payload))


def _assert_same_timeline(user, apps, profile) -> None:
    new = compile_timeline(user, apps, profile)
    old = _loop_compile_timeline(user, apps, profile)
    assert (new.user_id, new.platform) == (old.user_id, old.platform)
    assert _timeline_bytes(new) == _timeline_bytes(old)


# ----------------------------------------------------------------------
# Session-hour draws
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_hour_matches_choice_draw_for_draw(seed):
    profiles = [random_profile(RngRegistry(seed).stream("tests.profiles"))
                for _ in range(3)]
    new_rng = RngRegistry(seed).stream("tests.hours")
    old_rng = RngRegistry(seed).stream("tests.hours")
    for i in range(300):
        profile = profiles[i % len(profiles)]
        assert profile.sample_hour(new_rng) == _choice_sample_hour(profile, old_rng)
    # Both consumed exactly the same draws.
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_and_timelines_match_the_oracles(seed, monkeypatch):
    n_days = 3 + seed % 5

    def trace(sample_hour):
        with monkeypatch.context() as patch:
            patch.setattr(DiurnalProfile, "sample_hour", sample_hour)
            registry = RngRegistry(seed)
            population = build_population(PopulationConfig(n_users=12),
                                          registry.stream("population"))
            generator = TraceGenerator(TOP15, TraceConfig(n_days=n_days),
                                       registry.stream("trace"))
            return generator.generate(population)

    new = trace(DiurnalProfile.sample_hour)
    old = trace(_choice_sample_hour)
    assert list(new.users) == list(old.users)
    for uid, user in new.users.items():
        assert user.platform == old.users[uid].platform
        assert user.sessions == old.users[uid].sessions
        for radio in (THREE_G, WIFI):
            _assert_same_timeline(user, TOP15, radio)


# ----------------------------------------------------------------------
# Timeline compilation edge cases
# ----------------------------------------------------------------------


def _app(app_id: str, refresh: float, interval: float | None) -> AppProfile:
    return AppProfile(app_id=app_id, category="test", popularity=1.0,
                      session_median_s=60.0, session_sigma=1.0,
                      ad_refresh_s=refresh, ad_bytes=5000,
                      app_request_interval_s=interval, app_request_bytes=2000)


#: Offline, streaming (below every radio's high tail on 3G), chatty,
#: exactly at the 3G high tail, and fractional periods.
CATALOG = (
    _app("offline", 30.0, None),
    _app("stream", 60.0, 4.0),
    _app("chatty", 30.0, 60.0),
    _app("at_tail", 20.0, THREE_G.high_tail_time),
    _app("fractional", 7.5, 12.5),
)

_TIES = (0.0, 30.0, 60.0, 100.0)


@st.composite
def _sessions(draw) -> list[Session]:
    sessions = []
    for _ in range(draw(st.integers(0, 10))):
        app = draw(st.sampled_from(CATALOG))
        periods = [app.ad_refresh_s]
        if app.app_request_interval_s is not None:
            periods.append(app.app_request_interval_s)
        start = draw(st.one_of(
            st.sampled_from(_TIES),  # several sessions sharing a start
            st.floats(0.0, 4 * 86400.0, allow_nan=False)))
        duration = draw(st.one_of(
            st.just(0.0),
            st.builds(lambda k, p: k * p, st.integers(0, 40),
                      st.sampled_from(periods)),  # exact multiples
            st.floats(0.0, 3 * 3600.0, allow_nan=False)))
        sessions.append(Session("u1", app.app_id, start, duration))
    return sessions


@settings(max_examples=300, deadline=None)
@given(sessions=_sessions(), radio=st.sampled_from((THREE_G, LTE, WIFI)),
       presorted=st.booleans())
def test_compile_timeline_matches_the_session_loop(sessions, radio, presorted):
    user = UserTrace("u1", "wp", list(sessions))
    if presorted:
        user.sort()
    _assert_same_timeline(user, CATALOG, radio)


def test_stream_span_sorts_after_its_first_slot():
    user = UserTrace("u1", "iphone",
                     [Session("u1", "stream", 30.0, 0.0),
                      Session("u1", "offline", 30.0, 45.0)])
    timeline = compile_timeline(user, CATALOG, THREE_G)
    assert timeline.times.tolist() == [30.0, 30.0, 30.0, 60.0]
    assert timeline.kinds.tolist() == [KIND_SLOT_START, KIND_APP_STREAM,
                                       KIND_SLOT_START, KIND_SLOT]


def test_silent_user_compiles_to_empty_arrays():
    timeline = compile_timeline(UserTrace("u1", "wp"), CATALOG, THREE_G)
    assert _timeline_bytes(timeline) == (("<f8", (0,), b""), ("|i1", (0,), b""),
                                         ("<f8", (0,), b""))


# ----------------------------------------------------------------------
# Pinned worlds
# ----------------------------------------------------------------------


def world_digest(world) -> str:
    """sha256 over a world's trace (insertion order) and timelines."""
    h = hashlib.sha256()
    h.update(repr(world.trace.n_days).encode())
    for uid, user in world.trace.users.items():
        h.update(f"{uid}|{user.platform}|{len(user.sessions)}\n".encode())
        for s in user.sessions:
            h.update(s.app_id.encode())
            h.update(np.array([s.start, s.duration], dtype=np.float64).tobytes())
    for uid, timeline in world.timelines.items():
        h.update(f"{uid}|{timeline.platform}|{world.profile_of[uid].name}\n".encode())
        for a in (timeline.times, timeline.kinds, timeline.payload):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
    return h.hexdigest()


#: Seed-7 worlds of perfbench's headline-batched, e9-event and
#: sharded-faults shapes, as built by the earlier per-session code.
PINNED = {
    (100, 4): "b20abbba2bc61bd70f54602781f5ac758df33d3404fa87a1a006aa51eaad721f",
    (16, 4): "2239e7ae840327273aac8da7cbfd8b68b1750bfe0176152982800c4a5c372fbe",
    (160, 4): "2120018545464038501da21d7985f5e3e4c4973d209e44de7aea791d9f7c4398",
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_benchmark_worlds_are_byte_identical(shape):
    n_users, n_days = shape
    world = build_world(ExperimentConfig(seed=7, n_users=n_users,
                                         n_days=n_days, train_days=3))
    assert world_digest(world) == PINNED[shape]
