"""Per-client event timelines compiled from a trace.

The end-to-end simulations replay, per client, a chronological stream of
three event kinds:

* ``SLOT`` — an ad rotation fired while an app was in foreground;
* ``APP`` — one app-originated request/response;
* ``APP_STREAM`` — a continuous-activity span (chatty apps whose request
  gaps are shorter than the radio's first tail stage collapse into one
  span with identical radio energy).

Compiling the trace once into flat numpy arrays makes epoch slicing a
pair of ``searchsorted`` calls instead of a discrete-event queue with
millions of entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.radio.profiles import RadioProfile
from repro.traces.schema import Trace, UserTrace
from repro.workloads.appstore import AppProfile

KIND_SLOT = 0
KIND_APP = 1
KIND_APP_STREAM = 2
#: First ad slot of a foreground session (app launch) — the SDK's
#: natural check-in point.
KIND_SLOT_START = 3


@dataclass(slots=True)
class ClientTimeline:
    """One client's chronological event stream.

    ``payload`` is bytes for ``APP`` events, the span duration (seconds)
    for ``APP_STREAM`` events, and the catalog app index for ``SLOT``
    events (so fallback auctions know the slot's category).
    """

    user_id: str
    platform: str
    times: np.ndarray      # float64, sorted
    kinds: np.ndarray      # int8
    payload: np.ndarray    # float64

    def __len__(self) -> int:
        return int(self.times.size)

    def slot_count(self) -> int:
        return int(((self.kinds == KIND_SLOT)
                    | (self.kinds == KIND_SLOT_START)).sum())

    def window(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Events with ``start <= time < end`` (views, not copies)."""
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="left"))
        return self.times[lo:hi], self.kinds[lo:hi], self.payload[lo:hi]

    def first_slot_in(self, start: float, end: float) -> float | None:
        """Time of the first SLOT event in [start, end), or None."""
        times, kinds, _ = self.window(start, end)
        idx = np.flatnonzero((kinds == KIND_SLOT) | (kinds == KIND_SLOT_START))
        if idx.size == 0:
            return None
        return float(times[idx[0]])


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive runs of ``counts[i]`` entries: each entry's run
    index ``i`` and its offset ``k`` within the run."""
    owner = np.repeat(np.arange(counts.size), counts)
    k = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, k


def compile_timeline(user: UserTrace, apps: Sequence[AppProfile],
                     profile: RadioProfile) -> ClientTimeline:
    """Compile one user's sessions into a :class:`ClientTimeline`.

    Events are laid out in session order — each session's slots, then
    its app traffic — and stably sorted by time, so equal times keep
    that order (a stream span sorts after its session's first slot).
    """
    app_index = {a.app_id: i for i, a in enumerate(apps)}
    sessions = user.sessions
    n = len(sessions)
    app = np.fromiter((app_index[s.app_id] for s in sessions),
                      dtype=np.intp, count=n)
    start = np.fromiter((s.start for s in sessions), dtype=np.float64, count=n)
    duration = np.fromiter((s.duration for s in sessions),
                           dtype=np.float64, count=n)
    intervals = [a.app_request_interval_s for a in apps]
    # Streaming-class apps (request gaps shorter than the radio's high
    # tail) never let the radio leave the active state: one continuous
    # span per session, same energy. Offline apps make no requests.
    streams = np.array([i is not None and i < profile.high_tail_time
                        for i in intervals], dtype=bool)[app]
    chatty = np.array([i is not None for i in intervals], dtype=bool)[app] & ~streams
    interval = np.array([1.0 if i is None else i for i in intervals],
                        dtype=np.float64)[app]
    refresh = np.array([a.ad_refresh_s for a in apps], dtype=np.float64)[app]
    request_bytes = np.array([a.app_request_bytes for a in apps],
                             dtype=np.float64)[app]

    n_slots = 1 + np.floor_divide(duration, refresh).astype(np.intp)
    n_app = streams.astype(np.intp)
    n_app[chatty] = 1 + np.floor_divide(duration[chatty],
                                        interval[chatty]).astype(np.intp)
    n_events = n_slots + n_app
    first = np.cumsum(n_events) - n_events
    times = np.empty(int(n_events.sum()), dtype=np.float64)
    kinds = np.empty(times.size, dtype=np.int8)
    payload = np.empty(times.size, dtype=np.float64)

    # Times are start + k * period, the arithmetic of Session.slot_times.
    owner, k = _runs(n_slots)
    at = first[owner] + k
    times[at] = start[owner] + k * refresh[owner]
    kinds[at] = np.where(k == 0, KIND_SLOT_START, KIND_SLOT)
    payload[at] = app[owner]

    owner, k = _runs(n_app)
    at = first[owner] + n_slots[owner] + k
    span = streams[owner]
    times[at] = np.where(span, start[owner],
                         start[owner] + k * interval[owner])
    kinds[at] = np.where(span, KIND_APP_STREAM, KIND_APP)
    payload[at] = np.where(span, duration[owner], request_bytes[owner])

    order = np.argsort(times, kind="stable")
    return ClientTimeline(
        user_id=user.user_id,
        platform=user.platform,
        times=times[order],
        kinds=kinds[order],
        payload=payload[order],
    )


def compile_trace(trace: Trace, apps: Sequence[AppProfile],
                  profile: RadioProfile) -> dict[str, ClientTimeline]:
    """Compile every user in a trace (sorted user-id order)."""
    return {
        user.user_id: compile_timeline(user, apps, profile)
        for user in trace.sorted_users()
    }
