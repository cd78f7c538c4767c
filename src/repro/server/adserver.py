"""The ad server.

Orchestrates the paper's three-party protocol with minimal changes to
the existing architecture:

1. **Predict.** Per-client slot predictors (mirrored server-side from
   client reports) forecast the next epoch's inventory.
2. **Sell ahead.** The predicted inventory is auctioned in the exchange
   *before it exists*, with a show-by deadline.
3. **Overbook.** Sold ads are replicated across clients by the dispatch
   policy so each meets its SLA target despite prediction error.
4. **Reconcile.** Client syncs (piggybacked on prefetch downloads)
   report displays; the server invalidates replicas of already-shown
   ads and bills/voids sales at settlement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.overbooking import Assignment, ClientForecast, DispatchPolicy
from repro.core.revenue import RevenueReport, settle_revenue
from repro.core.showcurve import DispatchCurve, WindowedShowCurveEstimator
from repro.core.sla import DisplayLog, SaleOutcome, SlaReport, settle_sla
from repro.exchange.marketplace import Exchange, Sale
from repro.obs import log as obs_log
from repro.obs.runtime import current_obs
from repro.prediction.base import SlotPredictor

# Shared silenceable diagnostics (repro.obs.log); ad-hoc print()/logging
# is deprecated repo-wide.
_log = obs_log.get_logger("server.adserver")


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Prefetch-system configuration (the knobs the paper sweeps)."""

    epoch_s: float = 3600.0          # prefetch/planning period T
    deadline_s: float = 14400.0      # show-by deadline D (>= T)
    epsilon: float = 0.05            # per-sale SLA violation target
    sell_factor: float = 0.8         # sold inventory / predicted inventory
    capacity_factor: float = 2.0     # max new ads per client, x predicted
    capacity_slack: int = 4          # ... plus this constant
    control_bytes: int = 400         # sync protocol overhead per sync
    report_delay_s: float = 900.0    # max impression-beacon batching delay
    report_bytes: int = 200          # impression beacon payload
    rescue_batch: int = 4            # at-risk sales re-replicated per dry slot
    standby_lag_s: float | None = None  # backup-replica activation delay
                                        # (defaults to one epoch)
    rescue_horizon_s: float | None = None  # rescue window before deadline
                                           # (defaults to one epoch)
    presumed_dark_after_s: float | None = None  # contact-staleness rescue
                                                # threshold (None disables)
    fallback: str = "realtime"       # cache-miss policy: realtime | house

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if (self.presumed_dark_after_s is not None
                and self.presumed_dark_after_s <= 0):
            raise ValueError("presumed_dark_after_s must be positive")
        if self.deadline_s < self.epoch_s:
            raise ValueError("deadline_s must be >= epoch_s "
                             "(sell more often for shorter deadlines)")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if self.sell_factor <= 0:
            raise ValueError("sell_factor must be positive")
        if self.fallback not in ("realtime", "house"):
            raise ValueError("fallback must be 'realtime' or 'house'")

    @property
    def standby_lag(self) -> float:
        """Grace period before backup replicas become displayable."""
        return (self.standby_lag_s if self.standby_lag_s is not None
                else self.epoch_s)

    @property
    def rescue_horizon(self) -> float:
        """Only sales this close to their deadline are rescued.

        Default: everything but the first epoch of the deadline window —
        the statically planned replicas get one clean epoch before the
        demand-driven safety net starts competing with them.
        """
        if self.rescue_horizon_s is not None:
            return self.rescue_horizon_s
        return max(self.epoch_s, self.deadline_s - self.epoch_s)

    @property
    def sla_window(self) -> int:
        """Deadline window length in whole epochs."""
        return max(1, int(round(self.deadline_s / self.epoch_s)))


@dataclass(frozen=True, slots=True)
class SyncResponse:
    """What a client receives when it checks in."""

    assignments: list[Assignment]
    invalidated_ids: set[int]
    nbytes: int


@dataclass(slots=True)
class EpochPlanStats:
    """Per-epoch planning telemetry."""

    epoch_index: int
    predicted_total: float
    sold: int
    assignments: int
    replication_factor: float
    expected_violation: float
    unplaced: int


@dataclass(slots=True)
class _ClientState:
    """Server-side view of one client."""

    predictor: SlotPredictor
    last_prediction: float = 0.0
    pending: list[Assignment] = field(default_factory=list)  # planned, undelivered
    delivered_unshown: dict[int, float] = field(default_factory=dict)  # id -> deadline


class AdServer:
    """The prefetching ad server.

    Sold sales wait in an *at-risk* table for :meth:`rescue`: one row
    per sale, in ``all_sales`` order. Every epoch's deadline strictly
    exceeds the previous epoch's, so rows are in ``(deadline,
    sale_id)`` order and the rescue scan is a forward pass over flat
    columns: deadline, shown (from reports) and *freshness*.
    ``_fresh[row]`` is the latest ``_last_contact`` over the sale's
    owners (``-inf`` for an ownerless row, ``-1.0`` for a
    never-contacted owner), raised at every contact through a
    user -> rows index. Owner sets shrink only in the presumed-dark
    sweep, which therefore rebuilds the column; everywhere else owners
    are add-only and the running max stays exact.
    """

    def __init__(self, config: ServerConfig, exchange: Exchange,
                 policy: DispatchPolicy,
                 predictors: dict[str, SlotPredictor],
                 rng: np.random.Generator,
                 curve: WindowedShowCurveEstimator | None = None) -> None:
        self.config = config
        self.exchange = exchange
        self.policy = policy
        self.rng = rng
        if curve is None:
            curve = WindowedShowCurveEstimator(max_window=config.sla_window)
        if curve.max_window < config.sla_window:
            raise ValueError("show-curve window shorter than the deadline")
        self.curve = curve
        self._dispatch_curve = DispatchCurve(curve, config.sla_window)
        self._clients = {uid: _ClientState(predictor=p)
                         for uid, p in predictors.items()}
        # Ground truth and protocol state.
        self.display_log = DisplayLog()
        self.shown_set: set[int] = set()      # known via reports only
        self.all_sales: list[Sale] = []
        self._sale_owners: dict[int, set[str]] = {}
        # The at-risk table (see the class docstring); a row is the
        # sale's index in all_sales, rows before _head are settled.
        self._row_of: dict[int, int] = {}
        self._deadlines = np.empty(0)
        self._shown = np.empty(0, dtype=bool)
        self._fresh = np.empty(0)
        self._head = 0
        self._rows_of_user: dict[str, list[int]] = {}
        self._last_contact: dict[str, float] = {}
        self._revoked: dict[str, set[int]] = {}
        self.rescues = 0
        self.presumed_dark = 0
        self.redispatched = 0
        self.degraded_epochs = 0
        self.plan_stats: list[EpochPlanStats] = []
        # Fallback accounting.
        self.fallback_billed = 0.0
        self.fallback_impressions = 0
        self.unfilled_slots = 0
        self.syncs = 0
        # Observability instruments (shard-local; merged by the Runner).
        obs = current_obs()
        self._recorder = obs.recorder
        self._sync_counter = obs.metrics.counter("server.syncs")
        self._rescue_counter = obs.metrics.counter("server.rescues")
        self._sold_counter = obs.metrics.counter("server.plan.sold")
        self._dispatch_counter = obs.metrics.counter("server.plan.assignments")
        self._fallback_counter = obs.metrics.counter("server.fallback.filled")
        self._unfilled_counter = obs.metrics.counter("server.fallback.unfilled")
        self._replication_hist = obs.metrics.histogram(
            "server.plan.replication")
        # Resilience instruments exist only when the feature is enabled
        # so fault-free metrics snapshots stay identical to pre-fault
        # builds.
        if config.presumed_dark_after_s is not None:
            self._presumed_dark_counter = obs.metrics.counter(
                "server.presumed_dark")
            self._redispatch_counter = obs.metrics.counter(
                "server.redispatched")
        self._degraded_counter = None

    # ------------------------------------------------------------------
    # Model training / updates
    # ------------------------------------------------------------------

    def warm_up(self, train_counts: dict[str, np.ndarray],
                start_epoch: int = 0) -> None:
        """Feed training epochs through predictors *and* the show curve.

        The curve sees the same (prediction, actual) pairs the live
        system would have produced during the training window.
        """
        for uid, counts in train_counts.items():
            state = self._clients[uid]
            for offset, actual in enumerate(counts):
                epoch = start_epoch + offset
                predicted = state.predictor.predict(epoch)
                self.curve.observe(uid, predicted, int(actual))
                state.predictor.observe(epoch, int(actual))

    def observe_epoch(self, epoch_index: int, actuals: dict[str, int]) -> None:
        """Ingest the true slot counts of a finished epoch.

        (The payload rides each client's next sync; see DESIGN.md.)
        """
        for uid, actual in actuals.items():
            state = self._clients[uid]
            self.curve.observe(uid, state.last_prediction, int(actual))
            state.predictor.observe(epoch_index, int(actual))

    # ------------------------------------------------------------------
    # Epoch planning: sell ahead + overbook
    # ------------------------------------------------------------------

    def plan_epoch(self, epoch_index: int, now: float) -> EpochPlanStats:
        """Sell the predicted inventory and plan its dispatch."""
        # Observations landed since the last plan: the memoized
        # saturated buckets are stale.
        self._dispatch_curve.clear_memo()
        dark: set[str] = set()
        if self.config.presumed_dark_after_s is not None:
            dark = self._rescue_presumed_dark(now)
            self._rebuild_fresh()
        forecasts: list[ClientForecast] = []
        total_predicted = 0.0
        for uid, state in self._clients.items():
            self._prune_state(state, now)
            predicted = max(0.0, state.predictor.predict(epoch_index))
            state.last_prediction = predicted
            total_predicted += predicted
            backlog = len(state.delivered_unshown) + len(state.pending)
            # Presumed-dark hosts get no new inventory until they are
            # heard from again.
            capacity = 0 if uid in dark else max(
                0,
                math.ceil(self.config.capacity_factor * predicted)
                + self.config.capacity_slack - backlog,
            )
            forecasts.append(ClientForecast(
                client_id=uid, predicted=predicted, backlog=backlog,
                capacity=capacity))
        to_sell = int(round(self.config.sell_factor * total_predicted))
        sales = self.exchange.sell_ahead(
            now, to_sell, deadline=now + self.config.deadline_s)
        plan = self.policy.plan(sales, forecasts, self._dispatch_curve,
                                rng=self.rng,
                                standby_until=now + self.config.standby_lag)
        for uid, queue in plan.queues.items():
            if queue:
                self._clients[uid].pending.extend(queue)
                owners = self._sale_owners
                for assignment in queue:
                    owners.setdefault(assignment.sale_id, set()).add(uid)
        self._add_rows(sales)
        stats = EpochPlanStats(
            epoch_index=epoch_index,
            predicted_total=total_predicted,
            sold=len(sales),
            assignments=plan.assignments(),
            replication_factor=plan.replication_factor(),
            expected_violation=plan.mean_expected_violation(),
            unplaced=len(plan.unplaced),
        )
        self.plan_stats.append(stats)
        self._sold_counter.inc(stats.sold)
        self._dispatch_counter.inc(stats.assignments)
        if stats.sold:
            self._replication_hist.observe(stats.replication_factor)
        if self._recorder.enabled:
            self._recorder.instant(
                now, "server", "dispatch",
                args={"epoch": epoch_index, "n_sold": stats.sold,
                      "n_assignments": stats.assignments,
                      "n_unplaced": stats.unplaced})
        return stats

    def _add_rows(self, sales: list[Sale]) -> None:
        """Append freshly sold (and planned) ``sales`` to the table."""
        if not sales:
            return
        base = len(self.all_sales)
        if base and sales[0].deadline < self.all_sales[-1].deadline:
            raise AssertionError("at-risk deadlines must be non-decreasing")
        self.all_sales.extend(sales)
        fresh = np.empty(len(sales))
        for offset, sale in enumerate(sales):
            self._row_of[sale.sale_id] = base + offset
            fresh[offset] = self._index_owners(base + offset,
                                               self._rows_of_user)
        self._deadlines = np.concatenate(
            [self._deadlines, [sale.deadline for sale in sales]])
        self._shown = np.concatenate(
            [self._shown, np.zeros(len(sales), dtype=bool)])
        self._fresh = np.concatenate([self._fresh, fresh])

    def _index_owners(self, row: int,
                      rows_of_user: dict[str, list[int]]) -> float:
        """File ``row`` under each owner; return the row's freshness."""
        last_contact = self._last_contact
        best = -math.inf
        for owner in self._sale_owners.get(self.all_sales[row].sale_id, ()):
            rows_of_user.setdefault(owner, []).append(row)
            contact = last_contact.get(owner, -1.0)
            if contact > best:
                best = contact
        return best

    def _rebuild_fresh(self) -> None:
        """Recompute freshness and the user -> rows index after the
        presumed-dark sweep discarded and added owners."""
        rows_of_user: dict[str, list[int]] = {}
        fresh = self._fresh
        for row in range(self._head, len(self.all_sales)):
            fresh[row] = self._index_owners(row, rows_of_user)
        self._rows_of_user = rows_of_user

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
        fresh = self._fresh
        shown = self._shown
        head = self._head
        keep: list[int] = []
        for row in rows:
            if row < head or shown[row]:
                continue
            keep.append(row)
            if fresh[row] < now:
                fresh[row] = now
        if len(keep) != len(rows):
            rows[:] = keep

    def _prune_state(self, state: _ClientState, now: float) -> None:
        """Drop expired/shown entries from the server's client view."""
        state.pending = [
            a for a in state.pending
            if a.sale.deadline >= now and a.sale_id not in self.shown_set
        ]
        state.delivered_unshown = {
            sid: deadline for sid, deadline in state.delivered_unshown.items()
            if deadline >= now and sid not in self.shown_set
        }

    def _rescue_presumed_dark(self, now: float) -> set[str]:
        """Contact-staleness rescue: reclaim replicas from silent hosts.

        A client the server has not heard from for
        ``presumed_dark_after_s`` is presumed dark (churned, dead
        battery, extended outage): its undelivered queue is reclaimed
        and its delivered-but-unshown replicas are revoked (the usual
        rescue hand-off — if the host comes back it drops its copy at
        the next contact, before a duplicate can show). Sales left with
        no live replica are re-dispatched round-robin onto the
        most-recently-heard-from live clients. Returns the presumed-dark
        user ids so the planner withholds new inventory from them.
        """
        threshold = now - float(self.config.presumed_dark_after_s or 0.0)
        dark: set[str] = set()
        orphaned: dict[int, float] = {}  # sale_id -> deadline
        for uid, state in self._clients.items():
            last = self._last_contact.get(uid)
            if last is None or last >= threshold:
                continue
            dark.add(uid)
            if not state.pending and not state.delivered_unshown:
                continue  # nothing left to reclaim (already rescued)
            self.presumed_dark += 1
            self._presumed_dark_counter.inc()
            reclaimed: dict[int, float] = {}
            for assignment in state.pending:
                reclaimed[assignment.sale_id] = assignment.sale.deadline
            state.pending = []
            for sid, deadline in state.delivered_unshown.items():
                reclaimed[sid] = deadline
                # Rescue hand-off: the host loses its copy at its next
                # contact, before it can produce a duplicate.
                self._revoked.setdefault(uid, set()).add(sid)
            state.delivered_unshown = {}
            for sid, deadline in reclaimed.items():
                owners = self._sale_owners.get(sid)
                if owners is not None:
                    owners.discard(uid)
                if sid in self.shown_set or deadline <= now:
                    continue
                if not owners:
                    orphaned[sid] = deadline
            if self._recorder.enabled:
                self._recorder.instant(
                    now, "server", "presumed_dark",
                    args={"user": uid, "n_reclaimed": len(reclaimed)})
        if not orphaned:
            return dark
        live = sorted(
            (uid for uid in self._clients
             if uid not in dark and self._last_contact.get(uid) is not None),
            key=lambda uid: (-self._last_contact[uid], uid))
        if not live:
            # Every candidate host is dark: the sales stay at risk for
            # demand-driven rescue at the next contact.
            return dark
        for index, (sid, deadline) in enumerate(
                sorted(orphaned.items(), key=lambda item: (item[1], item[0]))):
            sale = self.all_sales[self._row_of[sid]]
            uid = live[index % len(live)]
            target = self._clients[uid]
            target.pending.append(Assignment(sale, active_from=now))
            self._sale_owners.setdefault(sid, set()).add(uid)
            self.redispatched += 1
            self._redispatch_counter.inc()
        return dark

    def degraded_epoch(self, epoch_index: int, now: float) -> None:
        """Record an epoch in which the server/exchange was unreachable.

        No inventory is sold and nothing is dispatched; clients keep
        serving from their prefetched queues (graceful degradation — the
        paper's resilience argument). Every client contact in the window
        fails at the injector, so no protocol state changes either.
        """
        self.degraded_epochs += 1
        if self._degraded_counter is None:
            self._degraded_counter = current_obs().metrics.counter(
                "server.degraded_epochs")
        self._degraded_counter.inc()
        if self._recorder.enabled:
            self._recorder.instant(now, "server", "degraded",
                                   args={"epoch": epoch_index})

    # ------------------------------------------------------------------
    # Client-facing protocol
    # ------------------------------------------------------------------

    def sync(self, user_id: str, now: float,
             reports: list[tuple[int, float]]) -> SyncResponse:
        """Handle a client check-in: ingest reports, deliver new ads.

        ``reports`` are (sale_id, display_time) pairs since the client's
        previous sync. The response carries new assignments plus the ids
        of queued ads that other replicas already displayed.
        """
        self.syncs += 1
        self._sync_counter.inc()
        self._last_contact[user_id] = now
        self._bump_fresh(user_id, now)
        invalidated = self.report(user_id, reports)
        if self._recorder.enabled and (reports or invalidated):
            self._recorder.instant(
                now, "server", "reconcile",
                args={"user": user_id, "n_reports": len(reports),
                      "n_invalidated": len(invalidated)})
        state = self._clients[user_id]
        deliverable = [
            a for a in state.pending
            if a.sale.deadline > now and a.sale_id not in self.shown_set
        ]
        state.pending = []
        for assignment in deliverable:
            state.delivered_unshown[assignment.sale_id] = assignment.sale.deadline
        nbytes = (self.config.control_bytes
                  + sum(a.sale.creative_bytes for a in deliverable))
        return SyncResponse(assignments=deliverable,
                            invalidated_ids=invalidated, nbytes=nbytes)

    def report(self, user_id: str,
               reports: list[tuple[int, float]]) -> set[int]:
        """Ingest impression reports (beacon or sync payload).

        Returns the ids of this client's queued ads that other replicas
        already displayed — invalidations ride every server contact.
        """
        state = self._clients[user_id]
        row_of = self._row_of
        for sale_id, _time in reports:
            self.shown_set.add(sale_id)
            state.delivered_unshown.pop(sale_id, None)
            row = row_of.get(sale_id)
            if row is not None:
                self._shown[row] = True
        invalidated = {
            sid for sid in state.delivered_unshown if sid in self.shown_set}
        # Rescued-away ads: the rescuer took over; drop our copy before
        # it can produce a duplicate.
        invalidated |= self._revoked.pop(user_id, set())
        for sid in invalidated:
            state.delivered_unshown.pop(sid, None)
        return invalidated

    def rescue(self, user_id: str, now: float) -> list[Sale]:
        """Re-replicate at-risk sales onto an actively consuming client.

        Called when a client's cache runs dry mid-epoch: that client is
        *certain* to display ads right now, which makes it the perfect
        host for sold-but-unshown ads nearest their deadlines. Returns
        up to ``rescue_batch`` sales (possibly none).
        """
        state = self._clients[user_id]
        self._last_contact[user_id] = now
        self._bump_fresh(user_id, now)
        horizon = now + self.config.rescue_horizon
        # An owner is "safely idle" when it has been out of contact long
        # enough that any display it made must have been reported by now
        # (the beacon bound), and it has not been active this epoch.
        epoch_start = math.floor(now / self.config.epoch_s) * self.config.epoch_s
        quiet_since = min(epoch_start, now - self.config.report_delay_s)
        desperate_by = now + 0.25 * self.config.epoch_s
        deadlines = self._deadlines
        shown = self._shown
        fresh = self._fresh
        n_rows = len(self.all_sales)
        # Shown and expired rows at the head are settled for good; every
        # row from the new head on has its deadline still ahead.
        head = self._head
        while head < n_rows and (shown[head]
                                 or float(deadlines[head]) <= now):
            head += 1
        self._head = head
        picked: list[Sale] = []
        # Rows past the horizon are comfortably far from their deadline:
        # the statically planned replicas keep their chance to show them
        # without a duplicate.
        hi = int(np.searchsorted(deadlines, horizon, side="right"))
        if head < hi:
            # Duplicate guard: leave a sale alone while any replica host
            # has been active this epoch (it is consuming its queue and
            # will reach the ad), unless the deadline is imminent.
            # ``fresh >= quiet_since`` is that ``any``; an ownerless
            # row's -inf never blocks it.
            pickable = head + np.flatnonzero(
                ~shown[head:hi]
                & ((deadlines[head:hi] <= desperate_by)
                   | (fresh[head:hi] < quiet_since)))
            sale_owners = self._sale_owners
            batch = self.config.rescue_batch
            for row in pickable.tolist():
                if len(picked) >= batch:
                    break
                sale = self.all_sales[row]
                sid = sale.sale_id
                owners = sale_owners.setdefault(sid, set())
                if user_id in owners:
                    continue
                # Transfer ownership: idle hosts lose their copy at
                # their next contact, before they can display it.
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

    def record_display(self, sale_id: int, user_id: str, time: float) -> None:
        """Ground-truth display record (settlement input).

        Protocol-visible knowledge still travels via :meth:`sync`
        reports; this log only feeds end-of-run settlement.
        """
        self.display_log.record(sale_id, user_id, time)

    def realtime_fill(self, now: float, category: str,
                      platform: str) -> Sale | None:
        """Cache-miss fallback. Returns the sale to fetch, or None."""
        if self.config.fallback == "house":
            self.unfilled_slots += 1
            self._unfilled_counter.inc()
            return None
        sale = self.exchange.sell_now(now, category=category,
                                      platform=platform)
        if sale is None:
            self.unfilled_slots += 1
            self._unfilled_counter.inc()
            return None
        self.fallback_billed += sale.price
        self.fallback_impressions += 1
        self._fallback_counter.inc()
        return sale

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def finalize(self) -> tuple[list[SaleOutcome], SlaReport, RevenueReport]:
        """Settle every sale at the end of the run."""
        outcomes, sla = settle_sla(self.all_sales, self.display_log)
        revenue = settle_revenue(
            outcomes, self.exchange,
            billed_fallback=self.fallback_billed,
            fallback_impressions=self.fallback_impressions,
            unfilled_slots=self.unfilled_slots,
        )
        _log.debug("finalize: %d sales, %d syncs, %d rescues, "
                   "%d fallback fills, %d unfilled slots",
                   len(self.all_sales), self.syncs, self.rescues,
                   self.fallback_impressions, self.unfilled_slots)
        return outcomes, sla, revenue

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def mean_replication_factor(self) -> float:
        factors = [s.replication_factor for s in self.plan_stats if s.sold]
        return float(np.mean(factors)) if factors else 0.0

    def predictor_of(self, user_id: str) -> SlotPredictor:
        return self._clients[user_id].predictor
