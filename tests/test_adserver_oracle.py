"""The array-backed ad server against the heap-scan oracle.

:mod:`adserver_oracle` keeps the rescue that popped at-risk sales off a
heap and the dispatch curve that recomputed every saturated bucket.
Driven by the same calls, the production
:class:`~repro.server.adserver.AdServer` must rescue the same sales,
revoke the same replicas and leave every client with the same queues,
call for call — across planning epochs whose observations move the
show curve, reports that settle sales, rescues from owners and
strangers, and the presumed-dark sweep that discards and re-adds
owners. Whole headline runs with either server in the harness must be
bit-identical.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adserver_oracle import HeapAdServer
from repro.core.overbooking import StaggeredPolicy
from repro.exchange.auction import AuctionConfig
from repro.exchange.campaign import Campaign
from repro.exchange.marketplace import Exchange
from repro.experiments import harness
from repro.experiments.config import ExperimentConfig
from repro.faults.plan import FaultPlan
from repro.prediction.models import TimeOfDayMeanPredictor
from repro.runner import Runner, WorldSource
from repro.server.adserver import AdServer, ServerConfig
from repro.sim.rng import RngRegistry
from test_batched_equivalence import _fault_plans, _world_params

HOUR = 3600.0
USERS = ("u0", "u1", "u2", "u3")
WARM_EPOCHS = 72

# ----------------------------------------------------------------------
# Call for call
# ----------------------------------------------------------------------


def _build(cls, config: ServerConfig, seed: int, warm: list[int]):
    campaigns = [Campaign(f"c{i}", "a", bid=2.0 + i * 0.01, budget=1e9)
                 for i in range(20)]
    exchange = Exchange(campaigns, AuctionConfig(),
                        RngRegistry(seed).fresh("x"))
    predictors = {uid: TimeOfDayMeanPredictor(HOUR) for uid in USERS}
    server = cls(config, exchange, StaggeredPolicy(epsilon=0.05), predictors,
                 RngRegistry(seed).fresh("d"))
    server.warm_up({uid: np.array([(k + i) % 7 + warm[i % len(warm)]
                                   for k in range(WARM_EPOCHS)])
                    for i, uid in enumerate(USERS)})
    return server


def _assert_same_state(server: AdServer, oracle: HeapAdServer) -> None:
    assert server.all_sales == oracle.all_sales
    assert server.shown_set == oracle.shown_set
    assert server._revoked == oracle._revoked
    # The heap scan leaves empty owner sets behind for sales it looked
    # at; an empty set and a missing key mean the same thing.
    assert ({sid: owners for sid, owners in server._sale_owners.items()
             if owners}
            == {sid: owners for sid, owners in oracle._sale_owners.items()
                if owners})
    for uid in USERS:
        mine, theirs = server._clients[uid], oracle._clients[uid]
        assert mine.delivered_unshown == theirs.delivered_unshown
        assert ([a.sale_id for a in mine.pending]
                == [a.sale_id for a in theirs.pending])
    for name in ("rescues", "presumed_dark", "redispatched", "syncs"):
        assert getattr(server, name) == getattr(oracle, name), name


def _replay(server: AdServer, oracle: HeapAdServer, ops) -> int:
    """Apply ``ops`` to both servers, comparing after each.

    An op is ``(kind, user, step, n)``. ``plan`` jumps to the next
    epoch boundary, feeds every client about ``n`` slots for the last
    planned epoch (which moves the show curve) and plans; ``skip``
    does the same two epoch boundaries ahead, so clients fall silent
    for longer. ``sync`` and ``beacon`` advance the clock
    by ``step`` and report the user's first ``n`` delivered ads as
    shown; ``rescue`` advances by ``step`` and rescues onto the user.
    Returns the number of sales rescued.
    """
    now = WARM_EPOCHS * HOUR
    epoch = WARM_EPOCHS
    server.plan_epoch(epoch, now)
    oracle.plan_epoch(epoch, now)
    rescued = 0
    for kind, user, step, n in ops:
        uid = USERS[user]
        if kind in ("plan", "skip"):
            finished = epoch
            epoch = math.floor(now / HOUR) + (1 if kind == "plan" else 2)
            now = epoch * HOUR
            actuals = {u: n + i for i, u in enumerate(USERS)}
            for side in (server, oracle):
                side.observe_epoch(finished, actuals)
                side.plan_epoch(epoch, now)
        elif kind in ("sync", "beacon"):
            now += step
            shown = sorted(server._clients[uid].delivered_unshown)[:n]
            reports = [(sid, now) for sid in shown]
            if kind == "sync":
                mine = server.sync(uid, now, reports)
                theirs = oracle.sync(uid, now, reports)
                assert ([a.sale_id for a in mine.assignments]
                        == [a.sale_id for a in theirs.assignments])
                assert mine.invalidated_ids == theirs.invalidated_ids
                assert mine.nbytes == theirs.nbytes
            else:
                assert (server.report(uid, reports)
                        == oracle.report(uid, reports))
        else:
            now += step
            picked = server.rescue(uid, now)
            assert picked == oracle.rescue(uid, now)
            rescued += len(picked)
        _assert_same_state(server, oracle)
    return rescued


_ops = st.lists(
    st.tuples(
        st.sampled_from(["plan", "skip", "sync", "sync", "beacon",
                         "rescue", "rescue", "rescue"]),
        st.integers(min_value=0, max_value=len(USERS) - 1),
        st.sampled_from([0.0, 10.0, 300.0, 0.2 * HOUR, 0.6 * HOUR]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1, max_size=50)

_configs = st.fixed_dictionaries({
    "deadline_s": st.sampled_from([HOUR, 2 * HOUR, 4 * HOUR]),
    "sell_factor": st.sampled_from([0.5, 1.0, 2.0]),
    "rescue_batch": st.sampled_from([0, 1, 4]),
    "report_delay_s": st.sampled_from([300.0, 900.0]),
    "presumed_dark_after_s": st.sampled_from([None, 2 * HOUR]),
})

# A client rescues and keeps syncing, in that epoch and the next, and
# a third client looks for work each time: the rescuer is active, so
# the sales stay put.
_RESCUER_STAYS_ACTIVE = [
    ("rescue", 0, 1.5 * HOUR, 0), ("sync", 0, 10.0, 0),
    ("rescue", 2, 10.0, 0), ("plan", 0, 0.0, 3), ("sync", 0, 0.2 * HOUR, 0),
    ("rescue", 2, 10.0, 0)]
# u0 falls silent, the presumed-dark sweep hands its sales to u1, and
# u1 keeps syncing, so no other client may take them over.
_REDISPATCHED_OWNER_STAYS_ACTIVE = [
    ("sync", 0, 10.0, 0), ("sync", 1, 0.6 * HOUR, 0),
    ("plan", 0, 0.0, 3), ("sync", 1, 0.6 * HOUR, 0),
    ("plan", 0, 0.0, 3), ("sync", 1, 0.6 * HOUR, 0),
    ("plan", 0, 0.0, 3), ("sync", 1, 300.0, 0), ("rescue", 2, 300.0, 0),
    ("rescue", 3, 300.0, 0)]


@given(config=_configs, ops=_ops, seed=st.integers(0, 2**31),
       warm=st.lists(st.integers(0, 6), min_size=1, max_size=4))
@example(config={"deadline_s": 4 * HOUR, "sell_factor": 1.0,
                 "rescue_batch": 4, "report_delay_s": 900.0,
                 "presumed_dark_after_s": None},
         ops=_RESCUER_STAYS_ACTIVE, seed=1, warm=[3])
@example(config={"deadline_s": 4 * HOUR, "sell_factor": 1.0,
                 "rescue_batch": 4, "report_delay_s": 900.0,
                 "presumed_dark_after_s": 2 * HOUR},
         ops=_REDISPATCHED_OWNER_STAYS_ACTIVE, seed=1, warm=[3])
@settings(max_examples=200, deadline=None)
def test_adserver_matches_heap_oracle(config, ops, seed, warm):
    """Same calls, same RNG streams: identical picks and protocol state."""
    server_config = ServerConfig(epoch_s=HOUR, **config)
    server = _build(AdServer, server_config, seed, warm)
    oracle = _build(HeapAdServer, server_config, seed, warm)
    _replay(server, oracle, ops)


def test_pinned_sequences_rescue_and_sweep():
    """The pinned sequences reach the paths they pin: sales get rescued
    and the presumed-dark sweep redispatches."""
    for dark_after, ops in ((None, _RESCUER_STAYS_ACTIVE),
                            (2 * HOUR, _REDISPATCHED_OWNER_STAYS_ACTIVE)):
        config = ServerConfig(epoch_s=HOUR, deadline_s=4 * HOUR,
                              sell_factor=1.0,
                              presumed_dark_after_s=dark_after)
        server = _build(AdServer, config, 1, [3])
        oracle = _build(HeapAdServer, config, 1, [3])
        assert _replay(server, oracle, ops) > 0
        if dark_after is not None:
            assert server.redispatched > 0


# ----------------------------------------------------------------------
# Whole runs: the harness on either server
# ----------------------------------------------------------------------


def _assert_same_run(config: ExperimentConfig, *, backend: str,
                     shards: int | None = None) -> None:
    source = WorldSource()
    production = Runner(config, backend=backend, shards=shards,
                        source=source).run("headline")
    built: list[HeapAdServer] = []

    def oracle_server(*args, **kwargs) -> HeapAdServer:
        built.append(HeapAdServer(*args, **kwargs))
        return built[-1]

    with mock.patch.object(harness, "AdServer", oracle_server):
        oracle = Runner(config, backend=backend, shards=shards,
                        source=source).run("headline")
    assert built, "the harness did not build the oracle server"
    assert production.prefetch == oracle.prefetch
    assert production.realtime == oracle.realtime
    assert production.comparison == oracle.comparison
    assert production.record.metrics_digest == oracle.record.metrics_digest
    assert production.record.counter_totals == oracle.record.counter_totals


@given(params=_world_params, faults=_fault_plans,
       dark_after=st.sampled_from([None, 2 * HOUR]),
       backend=st.sampled_from(["event", "batched"]))
@example(params={"n_users": 8, "seed": 7, "epsilon": 0.1, "max_replicas": 2,
                 "wifi_fraction": 0.0, "rescue_batch": 0},
         faults=FaultPlan(), dark_after=None, backend="event")
@example(params={"n_users": 10, "seed": 11, "epsilon": 0.1,
                 "max_replicas": 2, "wifi_fraction": 0.0, "rescue_batch": 4},
         faults=FaultPlan(churn_prob=0.05, outage_rate_per_day=2.0,
                          outage_duration_s=600.0),
         dark_after=2 * HOUR, backend="batched")
@settings(max_examples=6, deadline=None)
def test_headline_matches_heap_oracle_on_random_worlds(params, faults,
                                                       dark_after, backend):
    """Whole headline runs are bit-identical with the oracle server in
    the harness, on the worlds and fault plans the backend-equivalence
    suite draws, presumed-dark sweeps and ``rescue_batch=0`` included."""
    config = ExperimentConfig(n_days=4, train_days=2, faults=faults,
                              presumed_dark_after_s=dark_after, **params)
    _assert_same_run(config, backend=backend)


def test_sharded_headline_matches_heap_oracle(tiny_config):
    """Shard-local servers match the oracle shard by shard."""
    for backend in ("event", "batched"):
        _assert_same_run(tiny_config, backend=backend, shards=4)
