"""Synthetic trace generation.

Turns a sampled user population into a concrete multi-day session trace:
for each user and day, a Poisson number of sessions is drawn around the
user's (noisy) daily rate, session start hours follow the user's diurnal
profile, apps follow the user's preference weights, and durations are
lognormal around the app's median.

The output has the statistical properties the paper's client models rely
on: heavy-tailed per-user volume, strong time-of-day structure, and
day-over-day self-similarity modulated by per-user regularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.obs import log

from .schema import SECONDS_PER_DAY, SECONDS_PER_HOUR, Session, Trace, UserTrace

# Diagnostics go through the shared repro.obs.log helper (silent unless
# enabled); ad-hoc print()/logging setups are deprecated repo-wide.
_log = log.get_logger("traces.generator")

if TYPE_CHECKING:  # avoid an import cycle; apps are duck-typed at runtime
    from repro.workloads.appstore import AppProfile
    from repro.workloads.population import UserProfile


@dataclass(frozen=True, slots=True)
class TraceConfig:
    """Knobs for trace synthesis (population knobs live elsewhere)."""

    n_days: int = 14
    max_sessions_per_day: int = 200
    min_session_s: float = 5.0
    max_session_s: float = 3 * SECONDS_PER_HOUR

    def __post_init__(self) -> None:
        if self.n_days <= 0:
            raise ValueError("n_days must be positive")
        if self.min_session_s <= 0 or self.max_session_s <= self.min_session_s:
            raise ValueError("invalid session duration bounds")


class TraceGenerator:
    """Deterministic (seeded) trace synthesiser.

    Parameters
    ----------
    apps:
        The app catalog users launch from.
    config:
        Trace-level knobs.
    rng:
        A dedicated numpy generator; the same generator + population
        always produces the identical trace.
    """

    def __init__(self, apps: Sequence["AppProfile"], config: TraceConfig,
                 rng: np.random.Generator) -> None:
        if not apps:
            raise ValueError("need at least one app")
        self.apps = list(apps)
        self.config = config
        self.rng = rng
        self._app_ids = [a.app_id for a in self.apps]
        self._app_by_id = {a.app_id: a for a in self.apps}

    def generate(self, population: Sequence["UserProfile"]) -> Trace:
        """Generate the full trace for ``population``."""
        trace = Trace(n_days=self.config.n_days)
        n_sessions = 0
        n_silent = 0
        for user in population:
            user_trace_sessions = self._user_sessions(user)
            n_sessions += len(user_trace_sessions)
            for session in user_trace_sessions:
                trace.add_session(session, platform=user.platform)
            if user.user_id not in trace.users:
                # Keep silent users in the population: they still run the
                # client SDK and must be predicted (as ~zero slots).
                trace.users[user.user_id] = UserTrace(user.user_id, user.platform)
                n_silent += 1
        for user_trace in trace.users.values():
            user_trace.sort()
        _log.debug("generated %d sessions for %d users (%d silent) "
                   "over %d days", n_sessions, len(population), n_silent,
                   self.config.n_days)
        return trace

    def _user_sessions(self, user: "UserProfile") -> list[Session]:
        # Draws stay scalar and in this order (day rate, count, apps, then
        # each session's hour and duration): drawing across sessions at
        # once would reorder the stream and change every trace.
        cfg = self.config
        rng = self.rng
        sessions: list[Session] = []
        app_ids = self._app_ids
        app_by_id = self._app_by_id
        weights = np.asarray(user.app_weights, dtype=float)
        if len(weights) != len(self.apps):
            raise ValueError(
                f"user {user.user_id} has {len(weights)} app weights for "
                f"{len(self.apps)} apps")
        weights = weights / weights.sum()
        # Clamp sessions to the trace horizon so downstream hour indexing
        # stays in range. Sessions starting too close to the horizon to
        # fit the minimum duration are dropped — clamping them would
        # violate the min_session_s invariant.
        end_cap = cfg.n_days * SECONDS_PER_DAY
        last_start = end_cap - cfg.min_session_s - 1e-6
        for day in range(cfg.n_days):
            rate = user.daily_rate(day, rng)
            count = int(rng.poisson(rate))
            count = min(count, cfg.max_sessions_per_day)
            if count == 0:
                continue
            chosen = rng.choice(len(app_ids), size=count, p=weights)
            for app_idx in chosen:
                app = app_by_id[app_ids[int(app_idx)]]
                hour = user.diurnal.sample_hour(rng)
                start = day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
                duration = float(rng.lognormal(
                    mean=np.log(app.session_median_s),
                    sigma=app.session_sigma))
                duration = float(min(max(duration, cfg.min_session_s),
                                     cfg.max_session_s))
                if start > last_start:
                    continue
                duration = min(duration, end_cap - start - 1e-6)
                sessions.append(Session(user.user_id, app.app_id, start, duration))
        return sessions


def generate_trace(population: Sequence["UserProfile"],
                   apps: Sequence["AppProfile"],
                   rng: np.random.Generator,
                   n_days: int = 14) -> Trace:
    """One-call convenience wrapper around :class:`TraceGenerator`."""
    generator = TraceGenerator(apps, TraceConfig(n_days=n_days), rng)
    return generator.generate(population)
