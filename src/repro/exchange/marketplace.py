"""The ad exchange.

Sits between the ad server and the demand side. Two selling paths exist:

* :meth:`Exchange.sell_now` — the status-quo real-time path: a slot is
  on screen *right now*, the auction clears, the winner is billed
  immediately.
* :meth:`Exchange.sell_ahead` — the paper's path: the ad server offers
  inventory that is merely *predicted* to exist. The auction clears and
  the winner's budget is committed immediately (so demand depletes the
  same way it does under real-time selling), but *billing* is deferred
  until the impression is actually rendered (:meth:`settle_shown`);
  undelivered impressions are voided and refunded
  (:meth:`settle_violated`).

Both paths find their bidders without touching campaign objects: bids,
targeting and an active flag per campaign live in arrays, and the rows
eligible for a slot context are one cached ``flatnonzero``. Both then
run the one second-price rule, :func:`~repro.exchange.auction.run_auctions`.
Both execution backends sell through this class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.obs.runtime import current_obs

from .auction import AuctionConfig, run_auctions
from .campaign import ANY, Campaign


@dataclass(frozen=True, slots=True)
class Sale:
    """One sold impression (a contract to display an ad)."""

    sale_id: int
    campaign_id: str
    price: float
    creative_bytes: int
    sold_at: float
    deadline: float           # show-by time; inf for real-time sales

    @property
    def has_deadline(self) -> bool:
        return self.deadline != float("inf")


class Exchange:
    """Marketplace facade over a campaign population.

    Bids and targeting are immutable, so they are read into arrays once,
    and each campaign's active bit (``Campaign.active``: it can still
    afford its own bid) is kept in lockstep with the campaign objects:
    re-read after every charge and refund, which only this class makes.
    The eligible rows of each slot context are cached until some
    campaign's active bit flips — roughly once per campaign per run,
    against one auction per slot.

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
        self._row_of = {c.campaign_id: row
                        for row, c in enumerate(self.campaigns)}
        if len(self._row_of) != len(self.campaigns):
            raise ValueError("duplicate campaign ids")
        self._bids = np.array([c.bid for c in self.campaigns], dtype=float)
        self._categories = np.array([c.category for c in self.campaigns],
                                    dtype=str)
        self._platforms = np.array([c.platform for c in self.campaigns],
                                   dtype=str)
        self._active = np.array([c.active for c in self.campaigns],
                                dtype=bool)
        self._target_masks: dict[tuple[str | None, str], np.ndarray] = {}
        self._eligible: dict[tuple[str | None, str], np.ndarray] = {}
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

    def _eligible_rows(self, category: str | None,
                       platform: str) -> np.ndarray:
        """Rows of the active campaigns targeting a slot context.

        ``category=None`` matches every category: predicted slots have
        no app context yet.
        """
        key = (category, platform)
        rows = self._eligible.get(key)
        if rows is None:
            mask = self._target_masks.get(key)
            if mask is None:
                mask = (self._platforms == ANY) | (self._platforms == platform)
                if category is not None:
                    mask &= ((self._categories == ANY)
                             | (self._categories == category))
                self._target_masks[key] = mask
            rows = np.flatnonzero(mask & self._active)
            self._eligible[key] = rows
        return rows

    def _sync(self, row: int) -> None:
        """Re-read one campaign's active bit after a charge or refund."""
        active = self.campaigns[row].active
        if active != self._active.item(row):
            self._active[row] = active
            self._eligible.clear()

    def eligible(self, category: str = ANY, platform: str = ANY) -> list[Campaign]:
        """Active campaigns targeting the given slot context."""
        return [self.campaigns[row] for row
                in self._eligible_rows(category, platform).tolist()]

    def active_campaigns(self) -> int:
        return int(self._active.sum())

    def campaign(self, campaign_id: str) -> Campaign:
        return self.campaigns[self._row_of[campaign_id]]

    # ------------------------------------------------------------------
    # Selling
    # ------------------------------------------------------------------

    def sell_now(self, now: float, category: str = ANY,
                 platform: str = ANY) -> Sale | None:
        """Real-time auction for a slot being displayed immediately.

        The winner is billed on the spot (display is guaranteed).
        Returns ``None`` when the auction does not clear.
        """
        sales = self._sell(now, self._eligible_rows(category, platform), 1,
                           deadline=float("inf"))
        if not sales:
            return None
        sale = sales[0]
        self.billed_revenue += sale.price
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
        sales = self._sell(now, self._eligible_rows(None, platform), count,
                           deadline)
        if self._recorder.enabled:
            self._recorder.instant(
                now, self.component, "auction.ahead",
                args={"n_offered": count, "n_sold": len(sales)})
        return sales

    def _sell(self, now: float, rows: np.ndarray, count: int,
              deadline: float) -> list[Sale]:
        """Auction ``count`` slots among ``rows`` and book every sale.

        All auctions clear before any winner pays, so budget attrition
        within one batch does not shrink its bidder pool (budgets are
        large relative to one epoch's spend). Each winner's budget is
        committed at once; billing is the caller's.
        """
        results = run_auctions(self._bids, rows, count,
                               self.auction_config, self.rng)
        self._auction_counter.inc(len(results))
        sales = []
        for result in results:
            if result is None:
                self.unsold_count += 1
                continue
            row, price = result
            winner = self.campaigns[row]
            winner.charge(price)
            self._sync(row)
            sales.append(Sale(
                sale_id=next(self._sale_ids),
                campaign_id=winner.campaign_id,
                price=price,
                creative_bytes=winner.creative_bytes,
                sold_at=now,
                deadline=deadline,
            ))
            self.booked_revenue += price
            self.sales_count += 1
            self._sold_counter.inc()
            self._price_hist.observe(price)
        return sales

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

        The advertiser gets its committed budget back, which may return
        an exhausted campaign to the market.
        """
        row = self._row_of[sale.campaign_id]
        self.campaigns[row].refund(sale.price)
        self._sync(row)
        self.voided_revenue += sale.price

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def mean_clearing_price(self) -> float:
        """Average booked price per sold impression."""
        if self.sales_count == 0:
            return 0.0
        return self.booked_revenue / self.sales_count
