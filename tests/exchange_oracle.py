"""The list-scan exchange, kept as the oracle for the array-backed one.

Before :class:`repro.exchange.marketplace.Exchange` held bids, budgets
and targeting as arrays, it found each auction's bidders by scanning
every campaign object and ran the second-price rule over the resulting
list. That code is kept here verbatim as a reference: it shares no
selling code with the production exchange, so the production one must
reproduce its sales draw for draw
(``tests/test_exchange_oracle.py``), and benchmark X3a times the two on
one sequence of sales.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.exchange.auction import AuctionConfig
from repro.exchange.campaign import ANY, Campaign
from repro.exchange.marketplace import Sale
from repro.obs.runtime import current_obs


@dataclass(frozen=True, slots=True)
class AuctionOutcome:
    """Result of one auction. ``winner`` is ``None`` when unsold."""

    winner: Campaign | None
    price: float
    n_bidders: int

    @property
    def sold(self) -> bool:
        return self.winner is not None


def run_auction(eligible: list[Campaign], config: AuctionConfig,
                rng: np.random.Generator) -> AuctionOutcome:
    """Run one second-price auction over ``eligible`` campaigns.

    A random subset of at most ``max_bidders`` campaigns participates
    (real exchanges shard demand); jittered bids below the reserve are
    dropped. The winner is *not* charged here — the caller settles
    payment, because in prefetch mode payment is contingent on display.
    """
    if not eligible:
        return AuctionOutcome(winner=None, price=0.0, n_bidders=0)
    if len(eligible) > config.max_bidders:
        picks = rng.choice(len(eligible), size=config.max_bidders,
                           replace=False)
        bidders = [eligible[int(i)] for i in picks]
    else:
        bidders = eligible
    base = np.array([c.bid for c in bidders])
    jitter = rng.lognormal(mean=0.0, sigma=config.bid_jitter_sigma,
                           size=base.size)
    bids = base * jitter
    live = bids >= config.reserve_price
    if not live.any():
        return AuctionOutcome(winner=None, price=0.0, n_bidders=len(bidders))
    bids = np.where(live, bids, -np.inf)
    order = np.argsort(bids)
    win_idx = int(order[-1])
    if live.sum() >= 2:
        second = float(bids[order[-2]])
        price = max(second, config.reserve_price)
    else:
        price = config.reserve_price
    return AuctionOutcome(winner=bidders[win_idx], price=price,
                          n_bidders=len(bidders))


def run_bulk_auctions(eligible: list[Campaign], count: int,
                      config: AuctionConfig,
                      rng: np.random.Generator) -> list[AuctionOutcome]:
    """Run ``count`` independent auctions over the same eligible set.

    Vectorised across auctions: used when the ad server sells a whole
    epoch's predicted inventory at once. Budget attrition within the
    batch is handled by the caller (budgets are large relative to one
    epoch's spend).
    """
    if count <= 0:
        return []
    if not eligible:
        return [AuctionOutcome(None, 0.0, 0)] * count
    n_bidders = min(len(eligible), config.max_bidders)
    bids_base = np.array([c.bid for c in eligible])
    outcomes: list[AuctionOutcome] = []
    # One (count, n_bidders) matrix of participants and jittered bids.
    if len(eligible) > config.max_bidders:
        participant_idx = np.stack([
            rng.choice(len(eligible), size=n_bidders, replace=False)
            for _ in range(count)
        ])
    else:
        participant_idx = np.tile(np.arange(len(eligible)), (count, 1))
    jitter = rng.lognormal(0.0, config.bid_jitter_sigma,
                           size=(count, n_bidders))
    bids = bids_base[participant_idx] * jitter
    bids[bids < config.reserve_price] = -np.inf
    order = np.argsort(bids, axis=1)
    for row in range(count):
        row_bids = bids[row]
        live = np.isfinite(row_bids).sum()
        if live == 0:
            outcomes.append(AuctionOutcome(None, 0.0, n_bidders))
            continue
        win_col = int(order[row, -1])
        if live >= 2:
            price = max(float(row_bids[order[row, -2]]), config.reserve_price)
        else:
            price = config.reserve_price
        winner = eligible[int(participant_idx[row, win_col])]
        outcomes.append(AuctionOutcome(winner, price, n_bidders))
    return outcomes


class ListScanExchange:
    """The list-scan marketplace: every auction scans every campaign object.

    Parameters
    ----------
    campaigns:
        The demand side; campaigns drop out as budgets exhaust.
    auction_config:
        Mechanics shared by all auctions.
    rng:
        Dedicated random stream (bid jitter, bidder sampling).
    component:
        Instrument/trace namespace for this marketplace instance.
        Headline runs hold two exchanges per shard (prefetch and the
        real-time baseline); distinct components keep their auction
        counters separable in the merged snapshot.
    """

    def __init__(self, campaigns: list[Campaign],
                 auction_config: AuctionConfig,
                 rng: np.random.Generator,
                 component: str = "exchange") -> None:
        self.campaigns = list(campaigns)
        self.auction_config = auction_config
        self.rng = rng
        self.component = component
        self._by_id = {c.campaign_id: c for c in self.campaigns}
        if len(self._by_id) != len(self.campaigns):
            raise ValueError("duplicate campaign ids")
        self._sale_ids = itertools.count()
        # Revenue ledger.
        self.billed_revenue = 0.0        # actually collected
        self.booked_revenue = 0.0        # sold (collected + pending + voided)
        self.voided_revenue = 0.0        # sold but never shown (SLA misses)
        self.sales_count = 0
        self.unsold_count = 0
        obs = current_obs()
        self._recorder = obs.recorder
        self._auction_counter = obs.metrics.counter(
            f"{component}.auctions.held")
        self._sold_counter = obs.metrics.counter(f"{component}.auctions.sold")
        self._price_hist = obs.metrics.histogram(
            f"{component}.clearing_price")

    # ------------------------------------------------------------------
    # Demand-side views
    # ------------------------------------------------------------------

    def eligible(self, category: str = ANY, platform: str = ANY) -> list[Campaign]:
        """Active campaigns targeting the given slot context."""
        return [c for c in self.campaigns
                if c.active and c.matches(category, platform)]

    def active_campaigns(self) -> int:
        return sum(1 for c in self.campaigns if c.active)

    def campaign(self, campaign_id: str) -> Campaign:
        return self._by_id[campaign_id]

    # ------------------------------------------------------------------
    # Selling
    # ------------------------------------------------------------------

    def sell_now(self, now: float, category: str = ANY,
                 platform: str = ANY) -> Sale | None:
        """Real-time auction for a slot being displayed immediately.

        The winner is billed on the spot (display is guaranteed).
        Returns ``None`` when the auction does not clear.
        """
        outcome = run_auction(self.eligible(category, platform),
                              self.auction_config, self.rng)
        self._auction_counter.inc()
        if not outcome.sold:
            self.unsold_count += 1
            return None
        sale = self._record(outcome, now, deadline=float("inf"))
        outcome.winner.charge(outcome.price)
        self.billed_revenue += outcome.price
        if self._recorder.enabled:
            self._recorder.instant(
                now, self.component, "auction.now",
                args={"sale": sale.sale_id, "campaign": sale.campaign_id})
        return sale

    def sell_ahead(self, now: float, count: int, deadline: float,
                   platform: str = ANY) -> list[Sale]:
        """Auction ``count`` *predicted* impressions, show-by ``deadline``.

        Predicted slots have no app context yet, so targeting is by
        platform only. Billing is deferred to settlement. Unsold
        predicted slots simply produce fewer sales than ``count``.
        """
        if deadline <= now:
            raise ValueError("deadline must be after the sale time")
        # Predicted slots have no app context yet; campaigns treat them
        # as run-of-network inventory for the user's platform, so
        # category targeting does not filter the bidder pool here.
        eligible = [c for c in self.campaigns
                    if c.active and (c.platform in (ANY, platform))]
        outcomes = run_bulk_auctions(eligible, count,
                                     self.auction_config, self.rng)
        self._auction_counter.inc(len(outcomes))
        sales = []
        for outcome in outcomes:
            if not outcome.sold:
                self.unsold_count += 1
                continue
            # Commit the budget now; billing waits for delivery.
            outcome.winner.charge(outcome.price)
            sales.append(self._record(outcome, now, deadline))
        if self._recorder.enabled:
            self._recorder.instant(
                now, self.component, "auction.ahead",
                args={"n_offered": count, "n_sold": len(sales)})
        return sales

    def _record(self, outcome: AuctionOutcome, now: float,
                deadline: float) -> Sale:
        sale = Sale(
            sale_id=next(self._sale_ids),
            campaign_id=outcome.winner.campaign_id,
            price=outcome.price,
            creative_bytes=outcome.winner.creative_bytes,
            sold_at=now,
            deadline=deadline,
        )
        self.booked_revenue += outcome.price
        self.sales_count += 1
        self._sold_counter.inc()
        self._price_hist.observe(outcome.price)
        return sale

    # ------------------------------------------------------------------
    # Settlement (prefetch path only)
    # ------------------------------------------------------------------

    def settle_shown(self, sale: Sale) -> None:
        """Bill a deferred sale: its impression was rendered in time.

        The budget was already committed at sale time.
        """
        self.billed_revenue += sale.price

    def settle_violated(self, sale: Sale) -> None:
        """Void a deferred sale that missed its deadline (SLA violation).

        The advertiser gets its committed budget back.
        """
        self._by_id[sale.campaign_id].refund(sale.price)
        self.voided_revenue += sale.price

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def mean_clearing_price(self) -> float:
        """Average booked price per sold impression."""
        if self.sales_count == 0:
            return 0.0
        return self.booked_revenue / self.sales_count
