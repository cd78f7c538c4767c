"""Vectorized shard-execution backend (``ShardJob.backend == "batched"``).

The event-driven engine charges every radio transfer, auction, and
rescue through per-object Python dispatch. That is the executable
specification — easy to audit against the paper — but it caps
single-shard throughput. This module supplies drop-in components that
keep the *protocol order* identical (server dispatch, auctions, and
rescue still happen event by event, because cross-user interaction
order matters there) while turning the per-user and per-campaign hot
loops into array operations:

* :class:`LogDevice` — records transfers and settles radio energy
  vectorially at the end of the run instead of running the
  :class:`~repro.radio.statemachine.RadioStateMachine` per transfer.
* :class:`BatchedExchange` — campaign eligibility as boolean masks over
  bid/budget arrays instead of a per-auction list comprehension that
  touches every campaign object.
* :class:`BatchedAdServer` — the at-risk rescue scan over flat deadline
  arrays instead of re-heapifying the at-risk heap on every dry cache.
* :class:`CachedCurve` — memoizes saturated show-curve buckets, which
  the dispatch policy queries hundreds of times per epoch.

Equivalence contract
--------------------
Each replacement reproduces the event engine's observable behaviour
draw-for-draw: the same RNG streams are consumed in the same order, so
sales, schedules, and fault decisions are identical, and the energy
arithmetic applies the exact scalar formulas elementwise. In practice
the backends are bit-identical; :data:`DEFAULT_CONTRACT` is the formal
per-metric bound CI enforces (and whose parameters are hashed into
every batched run's :class:`~repro.obs.ledger.RunRecord`), so any
future batched optimisation that trades exactness for speed must widen
the contract visibly. See DESIGN.md §10.

This module is a shard entry point for ``repro-lint``'s
interprocedural pass: everything reachable from it must satisfy the
RPR006 purity contract (no module-global or process state), so a
re-dispatched shard replays bit-identically on any worker.

Liveness/progress signals are not this module's job: the epoch loop
that drives both backends (:mod:`repro.experiments.harness`) emits a
per-shard heartbeat at every epoch boundary through
:func:`repro.obs.live.shard_heartbeat` — a sim-time trace instant plus,
when the live telemetry plane is active, an out-of-band ``ShardBeat``
— so batched shards report progress (and feed the crash flight
recorder's ring) identically to event-driven shards. See DESIGN.md
§12.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.showcurve import MAX_DEPTH, DispatchCurve
from repro.exchange.campaign import ANY, Campaign
from repro.exchange.marketplace import Exchange, Sale
from repro.obs.runtime import current_obs
from repro.radio.profiles import RadioProfile
from repro.server.adserver import AdServer, SyncResponse

TAG_AD = "ad"
TAG_APP = "app"


# ----------------------------------------------------------------------
# Radio: deferred vectorized settlement
# ----------------------------------------------------------------------


class LogDevice:
    """Device that logs transfers and settles radio energy in one pass.

    Duck-types :class:`repro.client.device.Device` for every caller in
    the harness (``ad_fetch`` / ``app_request`` / ``app_streaming`` /
    ``finish`` plus the reporting accessors). Transfers are appended to
    flat arrays; :meth:`finish` replays the promotion/tail recurrence
    once and computes all per-transfer energies elementwise, applying
    the same scalar formulas as
    :class:`~repro.radio.statemachine.RadioStateMachine` so the settled
    per-tag energies are bit-identical.

    The state *timeline* is not recorded — jobs that need it
    (experiment E12) must use the event backend.
    """

    __slots__ = ("user_id", "profile", "ad_bytes", "app_bytes",
                 "_req", "_dur", "_tags", "_last_req", "_wakeups",
                 "_energy_by_tag", "_finalized")

    def __init__(self, user_id: str, profile: RadioProfile,
                 keep_timeline: bool = False) -> None:
        if keep_timeline:
            raise ValueError(
                "LogDevice cannot keep a radio timeline; use the event "
                "backend for timeline-instrumented runs")
        self.user_id = user_id
        self.profile = profile
        self.ad_bytes = 0
        self.app_bytes = 0
        self._req: list[float] = []
        self._dur: list[float] = []
        self._tags: list[str] = []
        self._last_req = -math.inf
        self._wakeups = 0
        self._energy_by_tag: dict[str, float] = {}
        self._finalized = False

    # -- logging ------------------------------------------------------

    def _log(self, now: float, duration: float, tag: str) -> None:
        if self._finalized:
            raise RuntimeError("device already finalized")
        if now < self._last_req:
            raise ValueError(
                f"transfers must be chronological: {now} < {self._last_req}")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._last_req = now
        self._req.append(now)
        self._dur.append(duration)
        self._tags.append(tag)

    def ad_fetch(self, now: float, nbytes: int, extra_s: float = 0.0) -> None:
        self.ad_bytes += nbytes
        duration = self.profile.transfer_time(nbytes)
        if extra_s > 0.0:
            duration += extra_s
        self._log(now, duration, TAG_AD)

    def app_request(self, now: float, nbytes: int) -> None:
        self.app_bytes += nbytes
        self._log(now, self.profile.transfer_time(nbytes), TAG_APP)

    def app_streaming(self, now: float, duration: float) -> None:
        self.app_bytes += int(duration * self.profile.throughput)
        self._log(now, float(duration), TAG_APP)

    # -- settlement ---------------------------------------------------

    def finish(self, horizon: float | None = None) -> None:
        """Settle every transfer's promotion/active/tail energy at once."""
        if self._finalized:
            return
        self._finalized = True
        n = len(self._req)
        current_obs().metrics.counter("batched.transfers.settled").inc(n)
        if n == 0:
            return
        profile = self.profile
        promo_time = profile.promo_time
        promo_low_time = profile.promo_low_time
        high_tail_time = profile.high_tail_time
        tail_time = profile.tail_time
        req = self._req
        dur = self._dur
        # Pass 1 — the timing recurrence (start_k depends on end_{k-1}).
        eff = [0.0] * n
        end = [0.0] * n
        promo_code = [0] * n        # 0 = hot, 1 = low promo, 2 = full promo
        wakeups = 0
        prev_end = 0.0
        for k in range(n):
            r = req[k]
            effective = r if r > prev_end else prev_end
            if k == 0:
                code = 2
                wakeups += 1
                start = effective + promo_time
            else:
                gap = effective - prev_end
                if gap <= 0.0 or gap < high_tail_time:
                    code = 0
                    start = effective
                elif gap < tail_time:
                    code = 1
                    start = effective + promo_low_time
                else:
                    code = 2
                    wakeups += 1
                    start = effective + promo_time
            eff[k] = effective
            prev_end = start + dur[k]
            end[k] = prev_end
            promo_code[k] = code
        self._wakeups = wakeups
        # Pass 2 — elementwise energy over the gap structure.
        dur_a = np.asarray(dur)
        end_a = np.asarray(end)
        promo_choices = np.array([
            0.0,
            profile.promo_power * promo_low_time,
            profile.promo_energy,
        ])
        promo = promo_choices[np.asarray(promo_code, dtype=np.intp)]
        active = profile.active_power * dur_a
        tail = np.zeros(n)
        if n > 1:
            elapsed = np.asarray(eff)[1:] - end_a[:-1]
            high = np.minimum(elapsed, high_tail_time)
            low = np.minimum(np.maximum(elapsed - high_tail_time, 0.0),
                             profile.low_tail_time)
            inner = (profile.high_tail_power * high
                     + profile.low_tail_power * low)
            # A transfer that queued behind the in-flight one (gap <= 0)
            # never owns a settled tail; a gap past the full tail pays
            # the profile constant exactly.
            inner[elapsed <= 0.0] = 0.0
            inner[elapsed >= tail_time] = profile.tail_energy
            tail[:-1] = inner
        last_end = end[n - 1]
        if horizon is not None and horizon < last_end + tail_time:
            elapsed_last = max(horizon, last_end) - last_end
            high_last = min(elapsed_last, high_tail_time)
            low_last = min(max(elapsed_last - high_tail_time, 0.0),
                           profile.low_tail_time)
            tail[n - 1] = (profile.high_tail_power * high_last
                           + profile.low_tail_power * low_last)
        else:
            tail[n - 1] = profile.tail_energy
        # Pass 3 — per-tag accumulation in the event engine's exact
        # order (tail of k-1 lands before promo+active of k), so the
        # float sums match the incremental accountant bit for bit.
        energy = self._energy_by_tag
        tags = self._tags
        promo_l = promo.tolist()
        active_l = active.tolist()
        tail_l = tail.tolist()
        for k in range(n):
            if k:
                prev_tag = tags[k - 1]
                energy[prev_tag] = energy.get(prev_tag, 0.0) + tail_l[k - 1]
            tag = tags[k]
            energy[tag] = energy.get(tag, 0.0) + promo_l[k] + active_l[k]
        final_tag = tags[n - 1]
        energy[final_tag] = energy.get(final_tag, 0.0) + tail_l[n - 1]

    # -- reporting ----------------------------------------------------

    def energy_by_tag(self) -> dict[str, float]:
        return dict(self._energy_by_tag)

    def ad_energy(self) -> float:
        return self._energy_by_tag.get(TAG_AD, 0.0)

    def app_energy(self) -> float:
        return self._energy_by_tag.get(TAG_APP, 0.0)

    @property
    def wakeups(self) -> int:
        return self._wakeups

    @property
    def transfer_count(self) -> int:
        return len(self._req)


# ----------------------------------------------------------------------
# Exchange: array-backed campaign eligibility
# ----------------------------------------------------------------------


class _EligibleView(Sequence[Campaign]):
    """Lazy list-like view over the eligible campaign indices.

    :func:`~repro.exchange.auction.run_auction` only indexes at most
    ``max_bidders`` entries, so the view avoids materialising (and
    touching) every eligible campaign object per auction.
    """

    __slots__ = ("_campaigns", "_idx")

    def __init__(self, campaigns: list[Campaign], idx: np.ndarray) -> None:
        self._campaigns = campaigns
        self._idx = idx

    def __len__(self) -> int:
        return int(self._idx.size)

    def __bool__(self) -> bool:
        return self._idx.size > 0

    def __getitem__(self, i: int) -> Campaign:
        return self._campaigns[self._idx[i]]

    def __iter__(self) -> Iterator[Campaign]:
        campaigns = self._campaigns
        for i in self._idx.tolist():
            yield campaigns[i]


class BatchedExchange(Exchange):
    """Exchange whose demand-side views are boolean-mask lookups.

    Budgets live in a float array kept in lockstep with the campaign
    objects (resynced from ``budget - spent`` after every charge or
    refund, so the array compare is the same float compare the
    ``Campaign.active`` property performs). Targeting is immutable, so
    per-(category, platform) masks are computed once. Auctions consume
    the shared RNG stream exactly like the base class — same eligible
    order, same lengths, same draws — so sale sequences are identical.
    """

    def __init__(self, campaigns: list[Campaign], auction_config,
                 rng: np.random.Generator,
                 component: str = "exchange") -> None:
        super().__init__(campaigns, auction_config, rng,
                         component=component)
        self._bids = np.array([c.bid for c in self.campaigns])
        self._remaining = np.array([c.budget - c.spent
                                    for c in self.campaigns])
        self._categories = np.array([c.category for c in self.campaigns])
        self._platforms = np.array([c.platform for c in self.campaigns])
        self._index_of = {c.campaign_id: i
                          for i, c in enumerate(self.campaigns)}
        self._target_masks: dict[tuple[str, str], np.ndarray] = {}
        self._active_flags = self._remaining >= self._bids
        # flatnonzero(target & active) per (category, platform), valid
        # until any campaign's active bit flips (rare: roughly once per
        # campaign per run, vs one auction per slot).
        self._eligible_idx: dict[tuple[str, str], np.ndarray] = {}

    # -- bookkeeping --------------------------------------------------

    def _set_remaining(self, row: int, value: float) -> None:
        self._remaining[row] = value
        active = value >= self._bids[row]
        if active != self._active_flags[row]:
            self._active_flags[row] = active
            self._eligible_idx.clear()

    def _resync(self, campaign: Campaign) -> None:
        self._set_remaining(self._index_of[campaign.campaign_id],
                            campaign.budget - campaign.spent)

    def _eligible_rows(self, category: str, platform: str) -> np.ndarray:
        key = (category, platform)
        idx = self._eligible_idx.get(key)
        if idx is None:
            idx = np.flatnonzero(self._target_mask(category, platform)
                                 & self._active_flags)
            self._eligible_idx[key] = idx
        return idx

    def _target_mask(self, category: str, platform: str) -> np.ndarray:
        key = (category, platform)
        mask = self._target_masks.get(key)
        if mask is None:
            mask = (((self._categories == ANY)
                     | (self._categories == category))
                    & ((self._platforms == ANY)
                       | (self._platforms == platform)))
            self._target_masks[key] = mask
        return mask

    # -- demand-side views --------------------------------------------

    def eligible(self, category: str = ANY,
                 platform: str = ANY) -> _EligibleView:
        return _EligibleView(self.campaigns,
                             self._eligible_rows(category, platform))

    def active_campaigns(self) -> int:
        return int(self._active_flags.sum())

    # -- selling ------------------------------------------------------

    def sell_now(self, now: float, category: str = ANY,
                 platform: str = ANY) -> Sale | None:
        """Real-time auction, inlined over the bid/budget arrays.

        This is the hottest call in a shard (one per on-screen slot on
        both the real-time baseline and the prefetch fallback path), so
        it reimplements ``Exchange.sell_now`` +
        :func:`~repro.exchange.auction.run_auction` without building the
        per-auction bidder list. RNG discipline: the stream sees the
        same calls with the same arguments in the same order as the
        event path — ``choice`` only when the pool exceeds
        ``max_bidders``, then one sized ``lognormal`` — and the
        winner/price arithmetic reuses the identical numpy expressions,
        so sales and prices are bit-identical.
        """
        config = self.auction_config
        idx = self._eligible_rows(category, platform)
        n = int(idx.size)
        self._auction_counter.inc()
        if n == 0:
            self.unsold_count += 1
            return None
        if n > config.max_bidders:
            picks = self.rng.choice(n, size=config.max_bidders,
                                    replace=False)
            bidder_idx = idx[picks]
        else:
            bidder_idx = idx
        base = self._bids[bidder_idx]
        jitter = self.rng.lognormal(mean=0.0, sigma=config.bid_jitter_sigma,
                                    size=base.size)
        bids = base * jitter
        live = bids >= config.reserve_price
        n_live = int(live.sum())
        if n_live == 0:
            self.unsold_count += 1
            return None
        bids = np.where(live, bids, -np.inf)
        order = np.argsort(bids)
        row = int(bidder_idx[order[-1]])
        if n_live >= 2:
            price = max(float(bids[order[-2]]), config.reserve_price)
        else:
            price = config.reserve_price
        winner = self.campaigns[row]
        # Inlined Exchange._record + the sell_now settlement.
        sale = Sale(sale_id=next(self._sale_ids),
                    campaign_id=winner.campaign_id, price=price,
                    creative_bytes=winner.creative_bytes,
                    sold_at=now, deadline=float("inf"))
        self.booked_revenue += price
        self.sales_count += 1
        self._sold_counter.inc()
        self._price_hist.observe(price)
        winner.charge(price)
        self.billed_revenue += price
        self._set_remaining(row, winner.budget - winner.spent)
        if self._recorder.enabled:
            self._recorder.instant(
                now, self.component, "auction.now",
                args={"sale": sale.sale_id, "campaign": sale.campaign_id})
        return sale

    def sell_ahead(self, now: float, count: int, deadline: float,
                   platform: str = ANY) -> list[Sale]:
        """Epoch bulk sale, vectorized over the campaign arrays.

        Replicates ``Exchange.sell_ahead`` +
        :func:`~repro.exchange.auction.run_bulk_auctions` with the
        bidder pool taken from the active-flag array instead of the
        per-campaign list comprehension. RNG consumption (one ``choice``
        per offered slot when the pool exceeds ``max_bidders``, then a
        single jitter matrix) and the winner/price arithmetic are the
        identical numpy expressions, so the sale sequence is
        bit-identical.
        """
        if deadline <= now:
            raise ValueError("deadline must be after the sale time")
        config = self.auction_config
        rng = self.rng
        sales: list[Sale] = []
        if count <= 0:
            self._auction_counter.inc(0)
        else:
            idx = np.flatnonzero(self._active_flags
                                 & ((self._platforms == ANY)
                                    | (self._platforms == platform)))
            n_eligible = int(idx.size)
            if n_eligible == 0:
                self.unsold_count += count
                self._auction_counter.inc(count)
            else:
                n_bidders = min(n_eligible, config.max_bidders)
                if n_eligible > config.max_bidders:
                    participant_idx = np.stack([
                        rng.choice(n_eligible, size=n_bidders,
                                   replace=False)
                        for _ in range(count)
                    ])
                else:
                    participant_idx = np.tile(np.arange(n_eligible),
                                              (count, 1))
                jitter = rng.lognormal(0.0, config.bid_jitter_sigma,
                                       size=(count, n_bidders))
                bids = self._bids[idx][participant_idx] * jitter
                bids[bids < config.reserve_price] = -np.inf
                order = np.argsort(bids, axis=1)
                self._auction_counter.inc(count)
                campaigns = self.campaigns
                for row in range(count):
                    row_bids = bids[row]
                    live = np.isfinite(row_bids).sum()
                    if live == 0:
                        self.unsold_count += 1
                        continue
                    win_col = int(order[row, -1])
                    if live >= 2:
                        price = max(float(row_bids[order[row, -2]]),
                                    config.reserve_price)
                    else:
                        price = config.reserve_price
                    crow = int(idx[int(participant_idx[row, win_col])])
                    winner = campaigns[crow]
                    # Commit the budget now; billing waits for delivery
                    # (inlined Exchange._record).
                    winner.charge(price)
                    sales.append(Sale(
                        sale_id=next(self._sale_ids),
                        campaign_id=winner.campaign_id, price=price,
                        creative_bytes=winner.creative_bytes,
                        sold_at=now, deadline=deadline))
                    self.booked_revenue += price
                    self.sales_count += 1
                    self._sold_counter.inc()
                    self._price_hist.observe(price)
                    self._set_remaining(crow, winner.budget - winner.spent)
        if self._recorder.enabled:
            self._recorder.instant(
                now, self.component, "auction.ahead",
                args={"n_offered": count, "n_sold": len(sales)})
        return sales

    def settle_violated(self, sale: Sale) -> None:
        super().settle_violated(sale)
        self._resync(self._by_id[sale.campaign_id])


# ----------------------------------------------------------------------
# Show curve: saturated-bucket memoization
# ----------------------------------------------------------------------


class CachedCurve:
    """Memoizing facade over a :class:`DispatchCurve`.

    Once a prediction bucket is saturated (``total >= min_samples``),
    ``at_least`` is a pure function of ``(window, bucket, depth)``; the
    base estimator still recomputes the Poisson prior on every call.
    Unsaturated buckets fall through to the exact blended path (which
    depends on the raw prediction and cannot be memoized). The cache is
    invalidated whenever new observations land (once per planning
    epoch).
    """

    __slots__ = ("_dispatch", "sla_window", "dup_window", "_cache",
                 "_estimator_of")

    def __init__(self, dispatch: DispatchCurve) -> None:
        self._dispatch = dispatch
        self.sla_window = dispatch.sla_window
        self.dup_window = dispatch.dup_window
        self._cache: dict[tuple[int, int, int], float] = {}
        # The two windows are fixed at construction; resolve their
        # estimators once instead of per query.
        self._estimator_of = {
            window: dispatch.windowed.curve_for(window)
            for window in sorted({dispatch.sla_window, dispatch.dup_window})
        }

    def invalidate(self) -> None:
        self._cache.clear()

    def _at_least(self, window: int, predicted: float, j: int) -> float:
        if j <= 0:
            return 1.0
        estimator = self._estimator_of[window]
        bucket = estimator.saturated_bucket(predicted)
        if bucket is None:
            return estimator.at_least(predicted, j)
        depth = min(j, MAX_DEPTH)
        key = (window, bucket, depth)
        value = self._cache.get(key)
        if value is None:
            value = estimator.empirical_tail(bucket, depth)
            self._cache[key] = value
        return value

    def sla(self, predicted: float, j: int) -> float:
        return self._at_least(self.sla_window, predicted, j)

    def epoch(self, predicted: float, j: int) -> float:
        return self._at_least(self.dup_window, predicted, j)

    def at_least(self, predicted: float, j: int) -> float:
        return self.sla(predicted, j)


# ----------------------------------------------------------------------
# Ad server: flat-array rescue scan
# ----------------------------------------------------------------------


class BatchedAdServer(AdServer):
    """Ad server with an array-backed at-risk scan.

    Sales enter the at-risk set in ``(deadline, sale_id)`` order (every
    epoch's deadline strictly exceeds the previous epoch's), so the
    event engine's heap pops are equivalent to a forward scan over flat
    arrays. :meth:`rescue` walks the in-horizon candidates in row order
    and applies the exact guard-and-handoff sequence of the base
    implementation, touching only live ``_sale_owners`` /
    ``_last_contact`` state — so picks, revocations, and counters are
    identical call for call.

    The quiet-owner guard is evaluated as an array compare against a
    per-row *freshness* column: ``_r_fresh[row]`` is the max
    ``_last_contact`` over the sale's owners (``-inf`` for ownerless
    rows, the per-owner ``-1.0`` never-contacted default otherwise),
    maintained incrementally at every contact via a user → rows index.
    Owner sets only shrink inside the presumed-dark sweep, so that hook
    rebuilds the column wholesale; everywhere else owners are add-only
    and the running max stays exact.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dispatch_curve = CachedCurve(self._dispatch_curve)
        self._r_deadlines = np.empty(0)
        self._r_sids: list[int] = []
        self._r_sales: list[Sale] = []
        self._r_shown = np.empty(0, dtype=bool)
        self._r_fresh = np.empty(0)
        self._r_row_of: dict[int, int] = {}
        self._r_head = 0
        self._rows_of_user: dict[str, list[int]] = {}

    # -- at-risk bookkeeping ------------------------------------------

    def plan_epoch(self, epoch_index: int, now: float):
        self._dispatch_curve.invalidate()
        cursor = len(self.all_sales)
        stats = super().plan_epoch(epoch_index, now)
        new = self.all_sales[cursor:]
        if new:
            if (self._r_sales
                    and new[0].deadline < float(self._r_deadlines[-1])):
                raise AssertionError(
                    "at-risk deadlines must be non-decreasing")
            base = len(self._r_sales)
            fresh_new = np.empty(len(new))
            last_contact = self._last_contact
            rows_of_user = self._rows_of_user
            for offset, sale in enumerate(new):
                row = base + offset
                self._r_row_of[sale.sale_id] = row
                self._r_sids.append(sale.sale_id)
                self._r_sales.append(sale)
                best = -math.inf
                for owner in self._sale_owners.get(sale.sale_id, ()):
                    rows_of_user.setdefault(owner, []).append(row)
                    contact = last_contact.get(owner, -1.0)
                    if contact > best:
                        best = contact
                fresh_new[offset] = best
            self._r_deadlines = np.concatenate(
                [self._r_deadlines, [s.deadline for s in new]])
            self._r_shown = np.concatenate(
                [self._r_shown, np.zeros(len(new), dtype=bool)])
            self._r_fresh = np.concatenate([self._r_fresh, fresh_new])
        return stats

    def _bump_fresh(self, user_id: str, now: float) -> None:
        """Raise the freshness of every live row ``user_id`` owns.

        Settled rows (behind the head, or already shown) can never
        re-enter the candidate window, so they are pruned from the
        user's row list on the way past — the lists stay at the user's
        live backlog size instead of growing for the whole run.
        """
        rows = self._rows_of_user.get(user_id)
        if not rows:
            return
        fresh = self._r_fresh
        shown = self._r_shown
        head = self._r_head
        keep: list[int] = []
        for row in rows:
            if row < head or shown[row]:
                continue
            keep.append(row)
            if fresh[row] < now:
                fresh[row] = now
        if len(keep) != len(rows):
            rows[:] = keep

    def sync(self, user_id: str, now: float,
             reports: list[tuple[int, float]]) -> SyncResponse:
        response = super().sync(user_id, now, reports)
        self._bump_fresh(user_id, now)
        return response

    def _rescue_presumed_dark(self, now: float) -> set[str]:
        dark = super()._rescue_presumed_dark(now)
        # The sweep discards owners (the running max may drop) and
        # redispatches orphans (new ownership): rebuild the freshness
        # column and the user -> rows index over the live window.
        last_contact = self._last_contact
        sale_owners = self._sale_owners
        fresh = self._r_fresh
        rows_of_user: dict[str, list[int]] = {}
        for row in range(self._r_head, len(self._r_sales)):
            best = -math.inf
            for owner in sale_owners.get(self._r_sids[row], ()):
                rows_of_user.setdefault(owner, []).append(row)
                contact = last_contact.get(owner, -1.0)
                if contact > best:
                    best = contact
            fresh[row] = best
        self._rows_of_user = rows_of_user
        return dark

    def report(self, user_id: str,
               reports: list[tuple[int, float]]) -> set[int]:
        invalidated = super().report(user_id, reports)
        row_of = self._r_row_of
        shown = self._r_shown
        for sale_id, _time in reports:
            row = row_of.get(sale_id)
            if row is not None:
                shown[row] = True
        return invalidated

    # -- rescue -------------------------------------------------------

    def rescue(self, user_id: str, now: float) -> list[Sale]:
        state = self._clients[user_id]
        self._last_contact[user_id] = now
        self._bump_fresh(user_id, now)
        fresh = self._r_fresh
        horizon = now + self.config.rescue_horizon
        epoch_start = (math.floor(now / self.config.epoch_s)
                       * self.config.epoch_s)
        quiet_since = min(epoch_start, now - self.config.report_delay_s)
        desperate_by = now + 0.25 * self.config.epoch_s
        deadlines = self._r_deadlines
        shown = self._r_shown
        n_rows = len(self._r_sales)
        # Advance past the permanently settled prefix.
        head = self._r_head
        while head < n_rows and (shown[head]
                                 or float(deadlines[head]) <= now):
            head += 1
        self._r_head = head
        picked: list[Sale] = []
        if head < n_rows:
            hi = int(np.searchsorted(deadlines, horizon, side="right"))
            window_dl = deadlines[head:hi]
            # The quiet-owner guard vectorized: a live row survives when
            # its deadline is desperate or every owner has been silent
            # since ``quiet_since`` (``any(contact >= quiet_since)`` ==
            # ``fresh >= quiet_since``; an ownerless row's -inf never
            # blocks it, matching ``any(()) == False``).
            pickable = head + np.flatnonzero(
                ~shown[head:hi] & (window_dl > now)
                & ((window_dl <= desperate_by)
                   | (fresh[head:hi] < quiet_since)))
            sale_owners = self._sale_owners
            batch = self.config.rescue_batch
            for row in pickable.tolist():
                if len(picked) >= batch:
                    break
                sale = self._r_sales[row]
                sid = sale.sale_id
                owners = sale_owners.setdefault(sid, set())
                if user_id in owners:
                    continue
                for other in owners:
                    self._revoked.setdefault(other, set()).add(sid)
                    self._clients[other].delivered_unshown.pop(sid, None)
                owners.add(user_id)
                self._rows_of_user.setdefault(user_id, []).append(row)
                if fresh[row] < now:
                    fresh[row] = now
                state.delivered_unshown[sid] = sale.deadline
                picked.append(sale)
        self.rescues += len(picked)
        self._rescue_counter.inc(len(picked))
        if picked and self._recorder.enabled:
            self._recorder.instant(now, "server", "rescue",
                                   args={"user": user_id,
                                         "n_sales": len(picked)})
        return picked


# ----------------------------------------------------------------------
# Equivalence contract
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class MetricTolerance:
    """Per-metric bound: ``|a - b| <= abs_tol + rel_tol * max(|a|, |b|)``."""

    rel_tol: float = 0.0
    abs_tol: float = 0.0

    def holds(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.abs_tol + self.rel_tol * max(abs(a), abs(b))


#: Exact equality (integer counters and anything claimed bit-identical).
EXACT = MetricTolerance()

#: Float accumulators: the backends are bit-identical by construction,
#: but the contract grants a few ulp of headroom so an intentionally
#: re-associated future optimisation fails loudly in review (the digest
#: changes) rather than silently in CI.
FLOAT_SUM = MetricTolerance(rel_tol=1e-9)


@dataclasses.dataclass(frozen=True)
class ToleranceContract:
    """The documented per-metric equivalence bound between backends.

    ``digest()`` is recorded in the run record of every batched run,
    so two artifact directories are comparable exactly when their
    contract hashes agree. Metrics not named here must match exactly.
    """

    name: str = "batched-v1"
    metrics: tuple[tuple[str, MetricTolerance], ...] = (
        ("prefetch.energy.ad_joules", FLOAT_SUM),
        ("prefetch.energy.app_joules", FLOAT_SUM),
        ("prefetch.revenue.billed_prefetch", FLOAT_SUM),
        ("prefetch.revenue.billed_fallback", FLOAT_SUM),
        ("prefetch.revenue.voided", FLOAT_SUM),
        ("prefetch.sla.violation_rate", FLOAT_SUM),
        ("prefetch.mean_replication", FLOAT_SUM),
        ("realtime.energy.ad_joules", FLOAT_SUM),
        ("realtime.energy.app_joules", FLOAT_SUM),
        ("realtime.billed_revenue", FLOAT_SUM),
    )

    def tolerance_for(self, metric: str) -> MetricTolerance:
        for name, tolerance in self.metrics:
            if name == metric:
                return tolerance
        return EXACT

    def digest(self) -> str:
        payload = json.dumps(
            {"name": self.name,
             "metrics": {name: [t.rel_tol, t.abs_tol]
                         for name, t in self.metrics}},
            sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


DEFAULT_CONTRACT = ToleranceContract()


def _energy_metrics(prefix: str, energy) -> dict[str, float]:
    return {
        f"{prefix}.energy.ad_joules": energy.ad_joules,
        f"{prefix}.energy.app_joules": energy.app_joules,
        f"{prefix}.energy.wakeups": float(energy.wakeups),
        f"{prefix}.energy.ad_bytes": float(energy.ad_bytes),
        f"{prefix}.energy.app_bytes": float(energy.app_bytes),
    }


def prefetch_metrics(outcome) -> dict[str, float]:
    """Flatten a :class:`PrefetchOutcome` into contract-addressable metrics."""
    flat = _energy_metrics("prefetch", outcome.energy)
    flat.update({
        "prefetch.revenue.billed_prefetch": outcome.revenue.billed_prefetch,
        "prefetch.revenue.billed_fallback": outcome.revenue.billed_fallback,
        "prefetch.revenue.voided": outcome.revenue.voided,
        "prefetch.revenue.duplicate_impressions": float(
            outcome.revenue.duplicate_impressions),
        "prefetch.sla.violation_rate": outcome.sla.violation_rate,
        "prefetch.sla.n_sales": float(outcome.sla.n_sales),
        "prefetch.sla.n_violated": float(outcome.sla.n_violated),
        "prefetch.cached_displays": float(outcome.cached_displays),
        "prefetch.rescued_displays": float(outcome.rescued_displays),
        "prefetch.fallback_displays": float(outcome.fallback_displays),
        "prefetch.house_displays": float(outcome.house_displays),
        "prefetch.wasted_downloads": float(outcome.wasted_downloads),
        "prefetch.mean_replication": outcome.mean_replication,
        "prefetch.syncs": float(outcome.syncs),
    })
    return flat


def realtime_metrics(outcome) -> dict[str, float]:
    """Flatten a :class:`RealtimeOutcome` into contract-addressable metrics."""
    flat = _energy_metrics("realtime", outcome.energy)
    flat.update({
        "realtime.billed_revenue": outcome.billed_revenue,
        "realtime.impressions": float(outcome.impressions),
        "realtime.unfilled_slots": float(outcome.unfilled_slots),
    })
    return flat


def contract_violations(event: Mapping[str, float],
                        batched: Mapping[str, float],
                        contract: ToleranceContract = DEFAULT_CONTRACT
                        ) -> list[str]:
    """Human-readable list of metrics outside the contract (empty = pass)."""
    problems: list[str] = []
    for name in sorted(set(event) | set(batched)):
        a = event.get(name)
        b = batched.get(name)
        if a is None or b is None:
            problems.append(f"{name}: present in only one backend")
            continue
        if not contract.tolerance_for(name).holds(a, b):
            problems.append(
                f"{name}: event={a!r} batched={b!r} exceeds "
                f"{contract.tolerance_for(name)}")
    return problems


def assert_equivalent(event: Mapping[str, float],
                      batched: Mapping[str, float],
                      contract: ToleranceContract = DEFAULT_CONTRACT
                      ) -> None:
    """Raise ``AssertionError`` when the backends diverge past the contract."""
    problems = contract_violations(event, batched, contract)
    if problems:
        raise AssertionError(
            "backend equivalence violated:\n  " + "\n  ".join(problems))
