"""Trace data model.

A trace is the unit the whole reproduction runs on: per-user foreground
app sessions over a span of days, from which ad slots (one per ad
rotation) and app traffic (for piggybacking) are derived.

Times are simulated seconds from the trace origin (midnight of day 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True, slots=True)
class Session:
    """One foreground app session."""

    user_id: str
    app_id: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.start < 0:
            raise ValueError("start must be non-negative")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def day(self) -> int:
        return int(self.start // SECONDS_PER_DAY)

    @property
    def hour_of_day(self) -> float:
        return (self.start % SECONDS_PER_DAY) / SECONDS_PER_HOUR

    def slot_times(self, refresh_s: float) -> list[float]:
        """Ad-slot timestamps for this session given a rotation period."""
        if refresh_s <= 0:
            raise ValueError("refresh_s must be positive")
        n = 1 + int(self.duration // refresh_s)
        return [self.start + k * refresh_s for k in range(n)]


@dataclass(frozen=True, slots=True)
class AdSlot:
    """A single displayable ad opportunity on a client."""

    user_id: str
    app_id: str
    time: float

    @property
    def day(self) -> int:
        return int(self.time // SECONDS_PER_DAY)

    @property
    def hour_index(self) -> int:
        """Absolute hour index from the trace origin."""
        return int(self.time // SECONDS_PER_HOUR)


@dataclass(slots=True)
class UserTrace:
    """All sessions of one user, kept sorted by start time."""

    user_id: str
    platform: str
    sessions: list[Session] = field(default_factory=list)

    def add(self, session: Session) -> None:
        if session.user_id != self.user_id:
            raise ValueError("session belongs to a different user")
        self.sessions.append(session)

    def sort(self) -> None:
        self.sessions.sort(key=lambda s: s.start)

    def slots(self, refresh_of: dict[str, float]) -> list[AdSlot]:
        """Derive the user's ad-slot stream.

        ``refresh_of`` maps app_id -> rotation period in seconds.
        """
        out = [
            AdSlot(self.user_id, s.app_id, t)
            for s in self.sessions
            for t in s.slot_times(refresh_of[s.app_id])
        ]
        out.sort(key=lambda slot: slot.time)
        return out


@dataclass(slots=True)
class Trace:
    """A full population trace."""

    n_days: int
    users: dict[str, UserTrace] = field(default_factory=dict)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def horizon(self) -> float:
        """Trace length in seconds."""
        return self.n_days * SECONDS_PER_DAY

    def user(self, user_id: str) -> UserTrace:
        return self.users[user_id]

    def add_session(self, session: Session, platform: str = "wp") -> None:
        trace = self.users.get(session.user_id)
        if trace is None:
            trace = UserTrace(session.user_id, platform)
            self.users[session.user_id] = trace
        trace.add(session)

    def all_sessions(self) -> Iterator[Session]:
        """Iterate all sessions, grouped by user, time-sorted within."""
        for user_id in sorted(self.users):
            yield from self.users[user_id].sessions

    def n_sessions(self) -> int:
        return sum(len(u.sessions) for u in self.users.values())

    def sorted_users(self) -> list[UserTrace]:
        return [self.users[uid] for uid in sorted(self.users)]

    def split_days(self, boundary_day: int) -> tuple["Trace", "Trace"]:
        """Split into (train, test) traces at a day boundary.

        Sessions are assigned by their start day; the test trace keeps
        absolute timestamps so hour indices remain comparable.
        """
        if not 0 < boundary_day < self.n_days:
            raise ValueError("boundary_day must split the trace")
        train = Trace(n_days=boundary_day)
        test = Trace(n_days=self.n_days)
        for user in self.users.values():
            for s in user.sessions:
                target = train if s.day < boundary_day else test
                target.add_session(s, platform=user.platform)
        # Preserve the full user population in both halves (a user with
        # no train sessions still needs a predictor).
        for uid, user in self.users.items():
            for t in (train, test):
                if uid not in t.users:
                    t.users[uid] = UserTrace(uid, user.platform)
        return train, test
