"""Unit tests for the ad server's protocol logic."""

import numpy as np
import pytest

from repro.core.overbooking import StaggeredPolicy
from repro.exchange.auction import AuctionConfig
from repro.exchange.campaign import Campaign
from repro.exchange.marketplace import Exchange
from repro.prediction.models import TimeOfDayMeanPredictor
from repro.server.adserver import AdServer, ServerConfig
from repro.sim.rng import RngRegistry

HOUR = 3600.0


def _server(users=("u1", "u2"), **config_overrides) -> AdServer:
    config = ServerConfig(**{"epoch_s": HOUR, "deadline_s": 4 * HOUR,
                             **config_overrides})
    campaigns = [Campaign(f"c{i}", "a", bid=2.0 + i * 0.01, budget=1e9)
                 for i in range(20)]
    exchange = Exchange(campaigns, AuctionConfig(bid_jitter_sigma=1e-9),
                        RngRegistry(4).fresh("x"))
    predictors = {uid: TimeOfDayMeanPredictor(HOUR) for uid in users}
    return AdServer(config, exchange, StaggeredPolicy(epsilon=0.05),
                    predictors, RngRegistry(4).fresh("d"))


def _warm(server: AdServer, counts_per_epoch: int, epochs: int = 72) -> None:
    uids = list(server._clients)
    for uid in uids:
        server.warm_up({uid: np.full(epochs, counts_per_epoch)},
                       start_epoch=0)


def test_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(epoch_s=0.0)
    with pytest.raises(ValueError):
        ServerConfig(epoch_s=3600.0, deadline_s=1800.0)
    with pytest.raises(ValueError):
        ServerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ServerConfig(sell_factor=0.0)
    with pytest.raises(ValueError):
        ServerConfig(fallback="maybe")
    assert ServerConfig(epoch_s=HOUR, deadline_s=4 * HOUR).sla_window == 4
    assert ServerConfig().rescue_horizon == pytest.approx(
        ServerConfig().deadline_s - ServerConfig().epoch_s)


def test_plan_epoch_sells_scaled_prediction():
    server = _server(sell_factor=0.5)
    _warm(server, 10)
    now = 72 * HOUR
    stats = server.plan_epoch(72, now)
    assert stats.predicted_total == pytest.approx(20.0)
    assert stats.sold == 10
    assert stats.assignments >= stats.sold - stats.unplaced
    assert len(server.all_sales) == 10


def test_sync_delivers_planned_queue_once():
    server = _server(sell_factor=1.0)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    response = server.sync("u1", now + 60.0, reports=[])
    assert response.nbytes > server.config.control_bytes
    again = server.sync("u1", now + 120.0, reports=[])
    assert again.assignments == []
    assert again.nbytes == server.config.control_bytes


def test_reports_propagate_invalidations_to_other_replicas():
    server = _server(sell_factor=1.0)
    # Bursty history (active every other day): P(show) < 1, so the
    # planner must replicate to approach epsilon and u1/u2 end up
    # sharing sales.
    counts = np.repeat([1, 0, 1, 0], 24) * 12
    for uid in ("u1", "u2"):
        server.warm_up({uid: counts}, start_epoch=0)
    now = 96 * HOUR
    server.plan_epoch(96, now)
    r1 = server.sync("u1", now + 10.0, reports=[])
    r2 = server.sync("u2", now + 20.0, reports=[])
    shared = ({a.sale_id for a in r1.assignments}
              & {a.sale_id for a in r2.assignments})
    assert shared, "bursty world must force replication"
    sale_id = next(iter(shared))
    # u1 displays the shared sale and reports it.
    server.record_display(sale_id, "u1", now + 30.0)
    server.report("u1", [(sale_id, now + 30.0)])
    # u2's next contact must carry the invalidation.
    invalidated = server.report("u2", [])
    assert sale_id in invalidated


def test_expired_pending_is_pruned_at_delivery():
    server = _server(sell_factor=1.0, deadline_s=4 * HOUR)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    # The client only shows up after the deadline.
    response = server.sync("u1", now + 5 * HOUR, reports=[])
    assert response.assignments == []


def test_rescue_only_near_deadline_and_never_same_client():
    server = _server(sell_factor=1.0, rescue_batch=2,
                     rescue_horizon_s=1 * HOUR)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    # Immediately after planning, deadlines are 4 h out: nothing to rescue.
    assert server.rescue("u2", now + 100.0) == []
    # In the desperate window just before the deadline, rescue kicks in
    # regardless of owner activity.
    late = now + 3.9 * HOUR
    rescued = server.rescue("u2", late)
    assert 0 < len(rescued) <= 2
    for sale in rescued:
        assert sale.deadline > late
    # The same client never receives the same sale twice via rescue.
    more = server.rescue("u2", late + 10.0)
    assert not ({s.sale_id for s in rescued} & {s.sale_id for s in more})


def test_rescue_skips_sales_with_recently_active_owners():
    server = _server(sell_factor=1.0, rescue_batch=8,
                     rescue_horizon_s=4 * HOUR)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    r1 = server.sync("u1", now + 10.0, reports=[])   # u1 is active now
    owned_by_u1 = {a.sale_id for a in r1.assignments}
    rescued = server.rescue("u2", now + 20.0)
    # Sales delivered to the just-active u1 are left alone (deadline far).
    assert not ({s.sale_id for s in rescued} & owned_by_u1)


def test_rescue_revokes_previous_owner_copy():
    server = _server(sell_factor=1.0, rescue_batch=4,
                     rescue_horizon_s=4 * HOUR)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    r1 = server.sync("u1", now + 10.0, reports=[])
    owned = {a.sale_id for a in r1.assignments}
    assert owned
    # Much later (u1 long idle), u2 rescues some of u1's sales.
    late = now + 3.9 * HOUR
    rescued = server.rescue("u2", late)
    taken = {s.sale_id for s in rescued} & owned
    assert taken
    invalidated = server.report("u1", [])
    assert taken <= invalidated


def test_realtime_fill_modes():
    server = _server(fallback="realtime")
    sale = server.realtime_fill(0.0, category="game", platform="wp")
    assert sale is not None
    assert server.fallback_impressions == 1
    assert server.fallback_billed == pytest.approx(sale.price)

    house = _server(fallback="house")
    assert house.realtime_fill(0.0, "game", "wp") is None
    assert house.unfilled_slots == 1


def test_finalize_settles_all_sales():
    server = _server(sell_factor=1.0)
    _warm(server, 3)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    response = server.sync("u1", now + 10.0, reports=[])
    shown = response.assignments[0]
    server.record_display(shown.sale_id, "u1", now + 20.0)
    outcomes, sla, revenue = server.finalize()
    assert sla.n_sales == len(server.all_sales)
    assert sla.n_on_time == 1
    assert revenue.billed_prefetch == pytest.approx(shown.sale.price)
    assert revenue.paid_impressions == 1


# ----------------------------------------------------------------------
# Resilience: presumed-dark rescue, degraded epochs, at-risk hygiene
# ----------------------------------------------------------------------


def test_presumed_dark_reclaims_and_redispatches_to_live_host():
    server = _server(sell_factor=1.0, presumed_dark_after_s=HOUR,
                     deadline_s=8 * HOUR)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    r1 = server.sync("u1", now + 10.0, reports=[])
    owned = {a.sale_id for a in r1.assignments}
    assert owned, "u1 must receive inventory to lose"
    # u2 stays in contact; u1 goes silent for > presumed_dark_after_s.
    server.sync("u2", now + 1.9 * HOUR, reports=[])
    server.plan_epoch(74, now + 2 * HOUR)
    assert server.presumed_dark == 1
    assert server.redispatched > 0
    # u1's replicas were revoked: its next contact drops the copies.
    invalidated = server.report("u1", [])
    assert owned <= invalidated
    # The orphans now live on u2's pending queue.
    r2 = server.sync("u2", now + 2 * HOUR + 10.0, reports=[])
    redelivered = {a.sale_id for a in r2.assignments}
    assert owned & redelivered


def test_presumed_dark_all_candidate_hosts_dark():
    """When every contacted client is presumed dark, orphans stay at
    risk (no crash, no dispatch to a dark host) and wait for
    demand-driven rescue at the next live contact."""
    server = _server(sell_factor=1.0, presumed_dark_after_s=HOUR,
                     deadline_s=8 * HOUR, rescue_batch=10_000)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    delivered = set()
    for uid in ("u1", "u2"):
        response = server.sync(uid, now + 10.0, reports=[])
        delivered |= {a.sale_id for a in response.assignments}
    assert delivered
    # Everyone silent for two hours: all candidate hosts are dark.
    server.plan_epoch(74, now + 2 * HOUR)
    # (Only hosts that held replicas count; a dark host with an empty
    # queue has nothing to reclaim.)
    assert server.presumed_dark >= 1
    assert server.redispatched == 0
    # A dark host coming back rescues the orphans (demand-driven), its
    # own included: every delivered sale is still at risk and ownerless.
    rescued = server.rescue("u1", now + 7.5 * HOUR)
    assert delivered <= {sale.sale_id for sale in rescued}


def test_presumed_dark_ignores_never_contacted_clients():
    """Clients the server has never heard from are not presumed dark —
    otherwise the whole population is reclaimed at the first epoch."""
    server = _server(sell_factor=1.0, presumed_dark_after_s=HOUR)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    server.plan_epoch(74, now + 2 * HOUR)   # nobody ever synced
    assert server.presumed_dark == 0
    assert server.redispatched == 0


def test_rescue_drops_settled_and_hopeless_sales_from_heap():
    """Shown sales and sales past their deadline are never rescued:
    they leave the at-risk table for good."""
    server = _server(sell_factor=1.0, rescue_batch=10_000,
                     rescue_horizon_s=4 * HOUR)
    _warm(server, 5)
    now = 72 * HOUR
    server.plan_epoch(72, now)
    assert server.all_sales
    # Mark one sale shown via a report.
    response = server.sync("u1", now + 10.0, reports=[])
    shown = response.assignments[0].sale_id
    server.report("u1", [(shown, now + 20.0)])
    # Next epoch both owners are quiet: every unshown sale u2 does not
    # hold is rescued, the shown one is not.
    rescued = {sale.sale_id for sale in server.rescue("u2", now + 1.5 * HOUR)}
    held_by_u2 = {sid for sid, owners in server._sale_owners.items()
                  if "u2" in owners} - rescued
    assert rescued == ({sale.sale_id for sale in server.all_sales}
                       - {shown} - held_by_u2)
    # Past the deadline nothing is rescued, and nothing resurrects later.
    after_deadline = now + 5 * HOUR
    assert server.rescue("u2", after_deadline) == []
    assert server.rescue("u1", after_deadline + 10.0) == []


def test_degraded_epoch_records_but_sells_nothing():
    server = _server(sell_factor=1.0)
    _warm(server, 5)
    now = 72 * HOUR
    server.degraded_epoch(72, now)
    server.degraded_epoch(73, now + HOUR)
    assert server.degraded_epochs == 2
    assert server.all_sales == []
    assert server.plan_stats == []
    # Planning resumes normally once the blackout lifts.
    stats = server.plan_epoch(74, now + 2 * HOUR)
    assert stats.sold > 0


def test_presumed_dark_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(presumed_dark_after_s=0.0)
    with pytest.raises(ValueError):
        ServerConfig(presumed_dark_after_s=-1.0)
    assert ServerConfig(presumed_dark_after_s=HOUR).presumed_dark_after_s \
        == HOUR
