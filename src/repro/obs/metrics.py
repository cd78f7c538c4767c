"""Mergeable metrics instruments (counters, gauges, histograms).

The observability registry mirrors the accumulator contract the sharded
:class:`repro.runner.Runner` already relies on (repro-lint RPR004):
every instrument snapshot exposes an **associative** ``merge`` so shard
snapshots fold into population totals independently of worker count and
future-completion order. Instruments never touch RNG streams or
simulated time, so an instrumented run is bit-for-bit identical to an
uninstrumented one.

Naming follows the ``component.event`` scheme (DESIGN.md §8):
lower-case dot-separated segments, e.g. ``server.rescues`` or
``exchange.auctions.held``. The registry rejects malformed names so the
instrument namespace stays greppable and stable.

Instrument semantics
--------------------
* :class:`Counter` — monotone sum; merge adds.
* :class:`Gauge` — level instrument; the snapshot keeps the high-water
  mark, and merge takes the max (the only associative reduction that
  preserves "worst level seen anywhere").
* :class:`Histogram` — fixed log-scale (base-2) bins shared by every
  instance, so merge is bin-wise addition.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping

from .fields import check_object

#: Instrument names: ``component.event`` (two or more lowercase segments).
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Histogram bin boundaries: powers of two from 2**_MIN_EXP to 2**_MAX_EXP.
#: Fixed for every instance so merging is bin-wise addition.
_MIN_EXP = -10
_MAX_EXP = 30
HISTOGRAM_BOUNDS: tuple[float, ...] = tuple(
    float(2.0 ** e) for e in range(_MIN_EXP, _MAX_EXP + 1))

#: Number of bins: one per boundary interval plus under- and overflow.
N_BINS = len(HISTOGRAM_BOUNDS) + 1


def validate_instrument_name(name: str) -> str:
    """Return ``name`` if it matches ``component.event``, else raise."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"instrument name {name!r} does not match the "
            "'component.event' scheme (lowercase dot-separated segments)")
    return name


def histogram_bin(value: float) -> int:
    """Index of the fixed log-scale bin containing ``value``.

    Bin 0 holds everything at or below ``2**-10``; the last bin holds
    everything above ``2**30``; bin ``i`` holds
    ``(bounds[i-1], bounds[i]]``.
    """
    return bisect_left(HISTOGRAM_BOUNDS, value)


class Counter:
    """Monotone event counter (``component.event`` named)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """Level instrument tracking the current value and its high-water mark."""

    __slots__ = ("name", "value", "high")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.high: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level (the high-water mark is kept)."""
        self.value = float(value)
        if self.value > self.high:
            self.high = self.value


class Histogram:
    """Distribution sketch over fixed log-scale (base-2) bins."""

    __slots__ = ("name", "counts", "total", "count", "min_value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: list[int] = [0] * N_BINS
        self.total: float = 0.0
        self.count: int = 0
        self.min_value: float | None = None
        self.max_value: float | None = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        v = float(value)
        self.counts[histogram_bin(v)] += 1
        self.total += v
        self.count += 1
        if self.min_value is None or v < self.min_value:
            self.min_value = v
        if self.max_value is None or v > self.max_value:
            self.max_value = v


@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """Immutable histogram state; ``merge`` is bin-wise addition."""

    counts: tuple[int, ...] = (0,) * N_BINS
    total: float = 0.0
    count: int = 0
    min_value: float | None = None
    max_value: float | None = None

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Associative pairwise combination."""
        return HistogramSnapshot(
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            count=self.count + other.count,
            min_value=_opt_min(self.min_value, other.min_value),
            max_value=_opt_max(self.max_value, other.max_value),
        )

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON form (``counts`` as a list)."""
        return {
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "HistogramSnapshot":
        """Inverse of :meth:`to_jsonable` (strict; see :mod:`.fields`)."""
        raw = check_object(payload, {"counts": "[int]", "total": "number",
                                     "count": "int", "min": "number?",
                                     "max": "number?"})
        if len(raw["counts"]) != N_BINS:
            raise ValueError(f"key 'counts' must hold {N_BINS} bins")
        return cls(counts=tuple(raw["counts"]), total=raw["total"],
                   count=raw["count"], min_value=raw["min"],
                   max_value=raw["max"])


def _opt_min(a: float | None, b: float | None) -> float | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _opt_max(a: float | None, b: float | None) -> float | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Immutable registry state; the unit the Runner merges across shards.

    ``merge`` is associative key-wise: counters add, gauges take the
    max of their high-water marks, histograms add bin-wise. The empty
    snapshot is the identity element, so ``reduce(merge, parts,
    MetricsSnapshot())`` is well-defined for any shard layout.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Associative pairwise combination (key-wise, sorted keys)."""
        counters = {
            name: self.counters.get(name, 0) + other.counters.get(name, 0)
            for name in sorted(set(self.counters) | set(other.counters))
        }
        gauges = {
            name: max(self.gauges.get(name, 0.0),
                      other.gauges.get(name, 0.0))
            for name in sorted(set(self.gauges) | set(other.gauges))
        }
        empty = HistogramSnapshot()
        histograms = {
            name: self.histograms.get(name, empty).merge(
                other.histograms.get(name, empty))
            for name in sorted(set(self.histograms) | set(other.histograms))
        }
        return MetricsSnapshot(counters=counters, gauges=gauges,
                               histograms=histograms)

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON form with sorted keys."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].to_jsonable()
                           for k in sorted(self.histograms)},
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_jsonable` (strict; see :mod:`.fields`)."""
        raw = check_object(payload, {"counters": "{number}",
                                     "gauges": "{number}",
                                     "histograms": "{object}"})
        histograms: dict[str, HistogramSnapshot] = {}
        for name, entry in raw["histograms"].items():
            try:
                histograms[name] = HistogramSnapshot.from_jsonable(entry)
            except ValueError as exc:
                raise ValueError(f"histogram {name!r}: {exc}") from None
        return cls(counters=raw["counters"], gauges=raw["gauges"],
                   histograms=histograms)


class MetricsRegistry:
    """Factory and store for named instruments (one per shard run).

    Instruments are created on first use and cached by name; asking for
    an existing name with a different instrument kind raises, so two
    components can never silently alias one name to different semantics.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_kind(self, name: str, kind: str) -> None:
        owners = {"counter": self._counters, "gauge": self._gauges,
                  "histogram": self._histograms}
        for other_kind, store in owners.items():
            if other_kind != kind and name in store:
                raise ValueError(
                    f"instrument {name!r} already registered as a "
                    f"{other_kind}, cannot re-register as a {kind}")

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_kind(validate_instrument_name(name), "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_kind(validate_instrument_name(name), "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_kind(validate_instrument_name(name), "histogram")
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current instrument state into a mergeable value."""
        return MetricsSnapshot(
            counters={name: c.value
                      for name, c in sorted(self._counters.items())},
            gauges={name: g.high
                    for name, g in sorted(self._gauges.items())},
            histograms={
                name: HistogramSnapshot(
                    counts=tuple(h.counts), total=h.total, count=h.count,
                    min_value=h.min_value, max_value=h.max_value)
                for name, h in sorted(self._histograms.items())},
        )
