"""In-memory span recorder and the self-time arithmetic over its spans.

The recorder wraps functions at layer boundaries. Each call records a
span: a name, a start, an end, and the index of the span that was open
when it began (its parent, ``-1`` at top level). Spans are kept in flat
lists and written out once, at the end, by :meth:`SpanRecorder.save`.

Per span name, :func:`layer_totals` reports

* ``calls`` — spans with no ancestor of the same name, so a subclass
  override that calls into its base class (``BatchedAdServer.plan_epoch``
  → ``AdServer.plan_epoch``) counts once;
* ``total_s`` — the summed duration of those outermost spans;
* ``self_s`` — over every span of the name, its duration minus the
  durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np


class SpanRecorder:
    """Records nested spans from the wrappers it installs."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._open = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        name_id = self._name_id(name)
        clock, open_, name_of = self.clock, self._open, self.name_of
        parent, start, end = self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_.pop()

        return traced

    @contextmanager
    def installed(self, targets: Sequence[tuple[object, str, str]]
                  ) -> Iterator["SpanRecorder"]:
        """Wrap each ``(owner, attribute, span name)`` while inside."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(vars(owner)[attr], name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def save(self, path: Path) -> None:
        """Write every span once, as arrays (``names[name_of[i]]``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_of=np.array(self.name_of),
            parent=np.array(self.parent), start=np.array(self.start),
            end=np.array(self.end))


def layer_totals(names: Sequence[str], name_of: Sequence[int],
                 parent: Sequence[int], start: Sequence[float],
                 end: Sequence[float]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "total_s", "self_s"}}`` over recorded spans.

    Spans must be in the order they began, so a parent precedes its
    children (what :class:`SpanRecorder` produces).
    """
    n = len(name_of)
    duration = [end[i] - start[i] for i in range(n)]
    children_s = [0.0] * n
    #: Bit k of ``above[i]`` is set when an ancestor of span i has name k.
    above = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children_s[p] += duration[i]
            above[i] = above[p] | (1 << name_of[p])
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
              for name in names}
    for i in range(n):
        entry = totals[names[name_of[i]]]
        entry["self_s"] += duration[i] - children_s[i]
        if not above[i] >> name_of[i] & 1:
            entry["calls"] += 1
            entry["total_s"] += duration[i]
    return totals


def top_level_s(parent: Sequence[int], start: Sequence[float],
                end: Sequence[float], since: float) -> float:
    """Time covered by top-level spans that began at or after ``since``."""
    return sum(end[i] - start[i] for i in range(len(parent))
               if parent[i] < 0 and start[i] >= since)
