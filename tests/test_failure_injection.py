"""Failure-injection and edge-case tests: the system must degrade
gracefully, never corrupt its accounting."""

import numpy as np
import pytest

from repro.core.overbooking import StaggeredPolicy
from repro.exchange.auction import AuctionConfig
from repro.exchange.campaign import Campaign
from repro.exchange.marketplace import Exchange
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import ShardJob, execute_shard
from repro.prediction.models import TimeOfDayMeanPredictor
from repro.runner import Runner, WorldSource
from repro.server.adserver import AdServer, ServerConfig
from repro.sim.rng import RngRegistry

HOUR = 3600.0


def _headline(config, world=None):
    """Whole-population headline comparison via the Runner API."""
    return Runner(config, world=world).run("headline").comparison


def _prefetch_outcome(config, world):
    """Whole-population prefetch outcome via the ShardJob API."""
    execution = execute_shard(ShardJob.for_world(config, world,
                                                 mode="prefetch"))
    assert execution.prefetch is not None
    return execution.prefetch.outcome


def test_demand_collapse_mid_run():
    """Campaign budgets exhaust during the test window: unsold inventory
    must surface as unfilled/house slots, not crashes or phantom money."""
    config = ExperimentConfig(n_users=25, n_days=6, train_days=3, seed=31,
                              n_campaigns=6)
    world = WorldSource().world_for(config)
    # Tiny budgets: demand dies quickly.
    from repro.exchange.campaign import CampaignPoolConfig

    original = ExperimentConfig.campaign_config
    try:
        ExperimentConfig.campaign_config = lambda self: CampaignPoolConfig(
            n_campaigns=6, budget_median=50.0, budget_sigma=0.2)
        result = _prefetch_outcome(config, world)
    finally:
        ExperimentConfig.campaign_config = original
    assert result.house_displays > 0
    assert result.revenue.total_billed >= 0.0
    # Accounting identity still holds.
    assert (result.cached_displays + result.rescued_displays
            == result.revenue.paid_impressions
            + result.revenue.duplicate_impressions)


def test_population_with_silent_users():
    """Users who never produce a session must not break planning."""
    config = ExperimentConfig(n_users=30, n_days=6, train_days=3, seed=17,
                              median_sessions_per_day=0.8)
    world = WorldSource().world_for(config)
    silent = [uid for uid, t in world.timelines.items() if len(t) == 0]
    assert silent, "seed should produce at least one silent user"
    result = _prefetch_outcome(config, world)
    assert result.sla.n_sales >= 0


def test_server_with_zero_predictions_sells_nothing():
    config = ServerConfig(epoch_s=HOUR, deadline_s=4 * HOUR)
    exchange = Exchange([Campaign("c", "a", 2.0, 1e9)],
                        AuctionConfig(), RngRegistry(1).fresh("x"))
    server = AdServer(config, exchange, StaggeredPolicy(),
                      {"u1": TimeOfDayMeanPredictor(HOUR)},
                      RngRegistry(1).fresh("d"))
    stats = server.plan_epoch(0, 0.0)
    assert stats.sold == 0
    response = server.sync("u1", 10.0, reports=[])
    assert response.assignments == []
    _, sla, revenue = server.finalize()
    assert sla.n_sales == 0
    assert revenue.total_billed == 0.0


def test_rescue_with_empty_at_risk_heap():
    """Rescue before any sale exists picks nothing and does not fail."""
    config = ServerConfig(epoch_s=HOUR, deadline_s=4 * HOUR)
    exchange = Exchange([Campaign("c", "a", 2.0, 1e9)],
                        AuctionConfig(), RngRegistry(1).fresh("x"))
    server = AdServer(config, exchange, StaggeredPolicy(),
                      {"u1": TimeOfDayMeanPredictor(HOUR)},
                      RngRegistry(1).fresh("d"))
    assert server.rescue("u1", 100.0) == []


def test_all_campaigns_platform_mismatched():
    """No eligible demand for a platform: sell-ahead yields zero sales."""
    config = ServerConfig(epoch_s=HOUR, deadline_s=4 * HOUR)
    campaigns = [Campaign("c", "a", 2.0, 1e9, platform="blackberry")]
    exchange = Exchange(campaigns, AuctionConfig(),
                        RngRegistry(1).fresh("x"))
    sales = exchange.sell_ahead(0.0, 5, deadline=HOUR, platform="wp")
    assert sales == []
    assert exchange.unsold_count == 5


def test_single_user_world_runs():
    config = ExperimentConfig(n_users=1, n_days=6, train_days=3, seed=5)
    comparison = _headline(config)
    assert 0.0 <= comparison.sla_violation_rate <= 1.0


def test_extreme_epsilon_values():
    base = ExperimentConfig(n_users=20, n_days=6, train_days=3, seed=41)
    world = WorldSource().world_for(base)
    strict = _headline(base.variant(epsilon=0.001, max_replicas=4), world)
    loose = _headline(base.variant(epsilon=0.9, max_replicas=4), world)
    # Stricter epsilon can only add replication.
    assert strict.prefetch.mean_replication >= loose.prefetch.mean_replication


def test_house_fallback_mode_loses_revenue_not_correctness():
    base = ExperimentConfig(n_users=25, n_days=6, train_days=3, seed=23)
    world = WorldSource().world_for(base)
    realtime_fb = _headline(base, world)
    house_fb = _headline(base.variant(fallback="house"), world)
    assert house_fb.prefetch.house_displays > 0
    assert house_fb.prefetch.fallback_displays == 0
    assert house_fb.revenue_loss > realtime_fb.revenue_loss
    # House mode never wakes the radio for fallbacks: ad energy drops.
    assert (house_fb.prefetch.energy.ad_joules
            < realtime_fb.prefetch.energy.ad_joules)
