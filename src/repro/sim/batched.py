"""Vectorized shard-execution backend (``ShardJob.backend == "batched"``).

The two backends differ only in the device. The event-driven engine
charges every radio transfer through the per-transfer
:class:`~repro.radio.statemachine.RadioStateMachine`; that is the
executable specification, easy to audit against the paper. The batched
backend swaps in :class:`LogDevice`, which records transfers and
settles radio energy vectorially at the end of the run. Everything
else is shared: both backends run the same epoch loop, the one
:class:`~repro.server.adserver.AdServer` (with its array-backed rescue
scan) and the one array-backed
:class:`~repro.exchange.marketplace.Exchange`. ``BatchedExchange``
survives only as an alias of the latter.

Equivalence contract
--------------------
:class:`LogDevice` consumes no randomness and applies the exact scalar
energy formulas elementwise, in the event engine's summation order, so
the backends are bit-identical in practice; :data:`DEFAULT_CONTRACT`
is the formal per-metric bound CI enforces (and whose parameters are
hashed into every batched run's :class:`~repro.obs.ledger.RunRecord`),
so any future batched optimisation that trades exactness for speed
must widen the contract visibly. See DESIGN.md §10.

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
from typing import Mapping

import numpy as np

from repro.exchange.marketplace import Exchange
from repro.obs.runtime import current_obs
from repro.radio.profiles import RadioProfile

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


# Both backends sell through Exchange; perfbench/adapter.py imports this
# name and traces its _eligible_rows.
BatchedExchange = Exchange


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
