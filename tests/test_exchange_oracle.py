"""The array-backed exchange against the list-scan oracle.

:mod:`exchange_oracle` keeps the list-scan exchange that scanned every
campaign object per auction. Driven by the same operations on the same
RNG stream, the production :class:`~repro.exchange.marketplace.Exchange`
must sell the same impressions at the same prices, commit the same
budgets, and show the same demand-side views after every operation —
including when ``max_bidders`` truncates the bidder pool, when the
reserve rejects every bid, when budgets run out mid-run, and when a
refund returns an exhausted campaign to the market.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchange_oracle import ListScanExchange
from repro.exchange.auction import AuctionConfig
from repro.exchange.campaign import ANY, Campaign, CampaignPoolConfig, build_campaigns
from repro.exchange.marketplace import Exchange
from repro.sim.rng import RngRegistry

CATEGORIES = ("news", "games", ANY)
PLATFORMS = ("android", "ios", ANY)


def _assert_same_state(exchange: Exchange, oracle: ListScanExchange,
                       category: str, platform: str) -> None:
    assert ([c.campaign_id for c in exchange.eligible(category, platform)]
            == [c.campaign_id for c in oracle.eligible(category, platform)])
    assert exchange.active_campaigns() == oracle.active_campaigns()
    assert ([c.spent for c in exchange.campaigns]
            == [c.spent for c in oracle.campaigns])
    for name in ("billed_revenue", "booked_revenue", "voided_revenue",
                 "sales_count", "unsold_count"):
        assert getattr(exchange, name) == getattr(oracle, name), name


def _replay(exchange: Exchange, oracle: ListScanExchange,
            ops) -> tuple[int, int]:
    """Apply ``ops`` to both sides, comparing after each.

    An op is ``(kind, category, platform, count, refund)``: ``now`` or
    ``ahead`` sells, then ``refund`` > 0 voids the sale that many back
    in the list of outstanding sales (the SLA-miss refund path).
    Returns the number of sales and of refunds that returned an
    exhausted campaign to the market.
    """
    outstanding = []
    revived = 0
    now = 0.0
    for kind, category, platform, count, refund in ops:
        now += 60.0
        if kind == "now":
            sale = exchange.sell_now(now, category=category,
                                     platform=platform)
            expected = oracle.sell_now(now, category=category,
                                       platform=platform)
            sales = [] if sale is None else [sale]
            assert sale == expected
        else:
            sales = exchange.sell_ahead(now, count, deadline=now + 3600.0,
                                        platform=platform)
            assert sales == oracle.sell_ahead(now, count,
                                              deadline=now + 3600.0,
                                              platform=platform)
        outstanding.extend(sales)
        if refund and len(outstanding) >= refund:
            voided = outstanding.pop(-refund)
            was_active = exchange.campaign(voided.campaign_id).active
            exchange.settle_violated(voided)
            oracle.settle_violated(voided)
            revived += (not was_active
                        and exchange.campaign(voided.campaign_id).active)
        _assert_same_state(exchange, oracle, category, platform)
    return exchange.sales_count, revived


def _pair(campaigns: list[Campaign], config: AuctionConfig, seed: int):
    def copy() -> list[Campaign]:
        return [Campaign(c.campaign_id, c.advertiser, c.bid, c.budget,
                         category=c.category, platform=c.platform,
                         creative_bytes=c.creative_bytes)
                for c in campaigns]
    return (Exchange(copy(), config, RngRegistry(seed).fresh("x")),
            ListScanExchange(copy(), config, RngRegistry(seed).fresh("x")))


_campaign_specs = st.lists(
    st.tuples(
        st.sampled_from(CATEGORIES),
        st.sampled_from(PLATFORMS),
        st.floats(min_value=0.1, max_value=5.0,
                  allow_nan=False, allow_infinity=False),     # bid
        st.floats(min_value=0.5, max_value=50.0,
                  allow_nan=False, allow_infinity=False),     # budget
    ),
    min_size=0, max_size=40)

_sell_ops = st.lists(
    st.tuples(
        st.sampled_from(["now", "ahead"]),
        st.sampled_from(CATEGORIES),
        st.sampled_from(PLATFORMS),
        st.integers(min_value=0, max_value=6),                # batch size
        st.integers(min_value=0, max_value=3),                # refund
    ),
    min_size=1, max_size=40)

_configs = st.builds(
    AuctionConfig,
    reserve_price=st.sampled_from([0.0, 0.1, 1.0, 1e6]),      # 1e6: none clear
    bid_jitter_sigma=st.sampled_from([1e-9, 0.15, 0.5]),
    max_bidders=st.sampled_from([1, 2, 3, 5, 24]))


@given(specs=_campaign_specs, ops=_sell_ops, config=_configs,
       seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_exchange_matches_list_scan_oracle(specs, ops, config, seed):
    """Same ops, same RNG stream: identical sales, budgets, and views."""
    pool = [Campaign(f"c{i}", f"adv{i}", bid, budget,
                     category=category, platform=platform)
            for i, (category, platform, bid, budget) in enumerate(specs)]
    exchange, oracle = _pair(pool, config, seed)
    _replay(exchange, oracle, ops)


def test_reserve_above_every_bid_sells_nothing():
    pool = [Campaign(f"c{i}", "a", 1.0 + i, 1e9) for i in range(30)]
    exchange, oracle = _pair(pool, AuctionConfig(reserve_price=1e6), 3)
    ops = [("now", ANY, ANY, 1, 0), ("ahead", ANY, ANY, 5, 0)] * 5
    assert _replay(exchange, oracle, ops) == (0, 0)
    assert exchange.unsold_count == 30


@pytest.mark.parametrize("seed", range(24))
def test_exchange_matches_oracle_at_2400_campaigns(seed):
    """AdCell-scale pools: every auction truncates to ``max_bidders``.

    Small budgets make campaigns leave the market mid-run, and refunds
    bring some of them back.
    """
    registry = RngRegistry(seed)
    pool = build_campaigns(
        CampaignPoolConfig(n_campaigns=2400, budget_median=3.0),
        registry.fresh("campaigns"))
    draws = registry.fresh("ops")
    for campaign in pool:
        campaign.platform = str(draws.choice(PLATFORMS))
    categories = CampaignPoolConfig().categories + (ANY,)
    ops = []
    for _ in range(120):
        ops.append(("now" if draws.random() < 0.7 else "ahead",
                    str(draws.choice(categories)),
                    str(draws.choice(PLATFORMS)),
                    int(draws.integers(1, 40)),
                    int(draws.integers(0, 4))))
    config = AuctionConfig(max_bidders=int(draws.choice([3, 24])))
    exchange, oracle = _pair(pool, config, seed)
    sold, revived = _replay(exchange, oracle, ops)
    assert sold > 0
    # Budgets ran out for part of the pool during the run, and refunds
    # returned some exhausted campaigns to the market.
    assert exchange.active_campaigns() < len(pool)
    assert revived > 0
