"""Unit tests for second-price auctions."""

import numpy as np
import pytest

from repro.exchange.auction import AuctionConfig, run_auctions
from repro.sim.rng import RngRegistry


def _run(bids, config, rng, count=1, eligible=None):
    """``count`` auctions among ``eligible`` rows (default: every bid)."""
    rows = np.arange(len(bids)) if eligible is None else np.array(
        eligible, dtype=np.intp)
    return run_auctions(np.array(bids, dtype=float), rows, count, config,
                        rng)


@pytest.fixture
def auction_rng():
    return RngRegistry(77).fresh("auction")


def _no_jitter(reserve=0.1, max_bidders=24):
    return AuctionConfig(reserve_price=reserve, bid_jitter_sigma=1e-9,
                         max_bidders=max_bidders)


def test_highest_bidder_wins_pays_second_price(auction_rng):
    [(winner, price)] = _run([1.0, 3.0, 2.0], _no_jitter(), auction_rng)
    assert winner == 1
    assert price == pytest.approx(2.0, rel=1e-6)


def test_single_bidder_pays_reserve(auction_rng):
    [(winner, price)] = _run([5.0], _no_jitter(reserve=0.5), auction_rng)
    assert winner == 0
    assert price == pytest.approx(0.5)


def test_no_bidders_above_reserve_unsold(auction_rng):
    assert _run([0.2, 0.3], _no_jitter(reserve=1.0), auction_rng) == [None]


def test_empty_eligible_set(auction_rng):
    assert _run([1.0, 2.0], _no_jitter(), auction_rng,
                eligible=[]) == [None]


def test_only_eligible_rows_bid(auction_rng):
    [(winner, price)] = _run([5.0, 1.0, 2.0], _no_jitter(), auction_rng,
                             eligible=[1, 2])
    assert winner == 2
    assert price == pytest.approx(1.0, rel=1e-6)


def test_price_never_below_reserve_or_above_winner(auction_rng):
    config = AuctionConfig(reserve_price=0.4, bid_jitter_sigma=0.3)
    bids = list(np.linspace(0.5, 4.0, 12))
    for result in _run(bids, config, auction_rng, count=100):
        if result is not None:
            assert result[1] >= config.reserve_price - 1e-9


def test_max_bidders_caps_participation(auction_rng):
    # One participant per auction: nobody bids second, so every sale
    # clears at the reserve although twenty campaigns bid 1.0.
    results = _run([1.0] * 20, _no_jitter(max_bidders=1), auction_rng,
                   count=30)
    assert all(price == 0.1 for _, price in results)
    assert len({winner for winner, _ in results}) > 1


def test_bulk_auctions_match_count(auction_rng):
    results = _run([2.0, 3.0, 1.0], _no_jitter(), auction_rng, count=50)
    assert len(results) == 50
    assert all(r is not None for r in results)
    # With negligible jitter every auction clears at the second price.
    assert all(price == pytest.approx(2.0, rel=1e-6) for _, price in results)
    assert all(winner == 1 for winner, _ in results)


def test_bulk_zero_or_empty(auction_rng):
    assert _run([1.0], _no_jitter(), auction_rng, count=0) == []
    assert _run([1.0], _no_jitter(), auction_rng, count=5,
                eligible=[]) == [None] * 5


def test_bulk_with_reserve_filtering(auction_rng):
    assert _run([0.05], _no_jitter(reserve=1.0), auction_rng,
                count=10) == [None] * 10


def test_config_validation():
    with pytest.raises(ValueError):
        AuctionConfig(reserve_price=-1.0)
    with pytest.raises(ValueError):
        AuctionConfig(max_bidders=0)


def test_jitter_produces_price_dispersion(auction_rng):
    config = AuctionConfig(bid_jitter_sigma=0.3)
    prices = [price for _, price
              in _run([2.0] * 10, config, auction_rng, count=50)]
    assert np.std(prices) > 0.05
