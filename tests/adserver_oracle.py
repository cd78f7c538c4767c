"""The heap-scan ad server, kept as the oracle for the array-backed one.

Before :class:`repro.server.adserver.AdServer` kept its at-risk sales
as flat deadline/shown/freshness columns, it kept them in a
``(deadline, sale_id)`` heap: every rescue popped candidates one by
one, checked each owner's last contact in Python and pushed the
survivors back. Its dispatch curve recomputed every saturated
show-curve bucket on every query. That rescue and that curve are kept
here verbatim as a reference. :class:`HeapAdServer` shares everything
else with the production server, so the production one must pick,
revoke and hand off the same sales call for call
(``tests/test_adserver_oracle.py``), and whole runs built on either
must be bit-identical.
"""

from __future__ import annotations

import heapq
import math

from repro.core.showcurve import DispatchCurve
from repro.exchange.marketplace import Sale
from repro.server.adserver import AdServer, EpochPlanStats


class ExactDispatchCurve(DispatchCurve):
    """The dispatch curve without the saturated-bucket memo."""

    def sla(self, predicted: float, j: int) -> float:
        return self.windowed.at_least(predicted, j, self.sla_window)

    def epoch(self, predicted: float, j: int) -> float:
        return self.windowed.at_least(predicted, j, self.dup_window)


class HeapAdServer(AdServer):
    """Ad server whose rescue scans an at-risk heap."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dispatch_curve = ExactDispatchCurve(self.curve,
                                                  self.config.sla_window)
        self._at_risk: list[tuple[float, int, Sale]] = []  # (deadline,) heap

    def plan_epoch(self, epoch_index: int, now: float) -> EpochPlanStats:
        cursor = len(self.all_sales)
        stats = super().plan_epoch(epoch_index, now)
        for sale in self.all_sales[cursor:]:
            heapq.heappush(self._at_risk, (sale.deadline, sale.sale_id, sale))
        return stats

    def rescue(self, user_id: str, now: float) -> list[Sale]:
        state = self._clients[user_id]
        self._last_contact[user_id] = now
        horizon = now + self.config.rescue_horizon
        # An owner is "safely idle" when it has been out of contact long
        # enough that any display it made must have been reported by now
        # (the beacon bound), and it has not been active this epoch.
        epoch_start = math.floor(now / self.config.epoch_s) * self.config.epoch_s
        quiet_since = min(epoch_start, now - self.config.report_delay_s)
        desperate_by = now + 0.25 * self.config.epoch_s
        picked: list[Sale] = []
        skipped: list[tuple[float, int, Sale]] = []
        while self._at_risk and len(picked) < self.config.rescue_batch:
            deadline, sid, sale = heapq.heappop(self._at_risk)
            if sid in self.shown_set or deadline <= now:
                continue  # settled or hopeless: drop from the heap
            if deadline > horizon:
                # Nearest at-risk deadline is still comfortably far: the
                # statically planned replicas keep their chance to show
                # it without a duplicate.
                skipped.append((deadline, sid, sale))
                break
            owners = self._sale_owners.setdefault(sid, set())
            skipped.append((deadline, sid, sale))  # still at risk until shown
            if user_id in owners:
                continue
            # Duplicate guard: leave the sale alone while any replica
            # host has been active this epoch (it is consuming its queue
            # and will reach the ad), unless the deadline is imminent.
            if deadline > desperate_by and any(
                    self._last_contact.get(o, -1.0) >= quiet_since
                    for o in owners):
                continue
            # Transfer ownership: idle hosts lose their copy at their
            # next contact, before they can display it.
            for other in owners:
                self._revoked.setdefault(other, set()).add(sid)
                self._clients[other].delivered_unshown.pop(sid, None)
            owners.add(user_id)
            state.delivered_unshown[sid] = deadline
            picked.append(sale)
        for entry in skipped:
            heapq.heappush(self._at_risk, entry)
        self.rescues += len(picked)
        self._rescue_counter.inc(len(picked))
        if picked and self._recorder.enabled:
            self._recorder.instant(now, "server", "rescue",
                                   args={"user": user_id,
                                         "n_sales": len(picked)})
        return picked
