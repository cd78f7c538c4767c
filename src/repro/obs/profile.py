"""Wall-clock phase profiling for the run harness.

This is the **only** observability module allowed to read a clock, and
it reads only the monotonic ``time.perf_counter`` (repro-lint's RPR001
allowlist; the rule additionally pins all of ``repro.obs`` outside this
module to zero clock reads). Profiles measure where real time goes —
world build, shard execution, merging — and never feed back into
simulated quantities, so they are free to vary run to run while the
simulation output stays bit-for-bit stable.

:class:`PhaseStats` values are mergeable (associative ``merge``), so
repeated measurements of one phase fold into one entry of the run's
:class:`RunProfile`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .fields import check_object


@dataclass(frozen=True, slots=True)
class PhaseStats:
    """Aggregated wall-clock cost of one named phase."""

    calls: int = 0
    total_s: float = 0.0
    min_s: float = 0.0
    max_s: float = 0.0

    @classmethod
    def from_duration(cls, seconds: float) -> "PhaseStats":
        """Lift one measured duration into a stats value."""
        s = float(seconds)
        return cls(calls=1, total_s=s, min_s=s, max_s=s)

    def merge(self, other: "PhaseStats") -> "PhaseStats":
        """Associative pairwise combination."""
        if self.calls == 0:
            return other
        if other.calls == 0:
            return self
        return PhaseStats(
            calls=self.calls + other.calls,
            total_s=self.total_s + other.total_s,
            min_s=min(self.min_s, other.min_s),
            max_s=max(self.max_s, other.max_s),
        )

    @property
    def mean_s(self) -> float:
        """Mean seconds per call (0.0 when the phase never ran)."""
        return self.total_s / self.calls if self.calls else 0.0

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON form."""
        return {"calls": self.calls, "total_s": self.total_s,
                "min_s": self.min_s, "max_s": self.max_s}

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "PhaseStats":
        """Inverse of :meth:`to_jsonable` (strict; see :mod:`.fields`)."""
        return cls(**check_object(payload, {
            "calls": "int", "total_s": "number", "min_s": "number",
            "max_s": "number"}))


@dataclass(frozen=True, slots=True)
class RunProfile:
    """Per-run wall-clock profile: phase name → :class:`PhaseStats`."""

    phases: dict[str, PhaseStats] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON form with sorted phase names."""
        return {name: self.phases[name].to_jsonable()
                for name in sorted(self.phases)}

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "RunProfile":
        """Inverse of :meth:`to_jsonable` (strict; see :mod:`.fields`)."""
        phases: dict[str, PhaseStats] = {}
        for name, raw in payload.items():
            try:
                phases[name] = PhaseStats.from_jsonable(raw)
            except ValueError as exc:
                raise ValueError(f"phase {name!r}: {exc}") from None
        return cls(phases=phases)


class PhaseProfiler:
    """Collects :class:`PhaseStats` per named phase via ``perf_counter``."""

    def __init__(self) -> None:
        self._phases: dict[str, PhaseStats] = {}

    def add(self, name: str, seconds: float) -> None:
        """Fold one externally measured duration into ``name``."""
        current = self._phases.get(name, PhaseStats())
        self._phases[name] = current.merge(PhaseStats.from_duration(seconds))

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the ``with`` body as one call of phase ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def snapshot(self) -> RunProfile:
        """Freeze the collected phases into a mergeable profile."""
        return RunProfile(phases={name: self._phases[name]
                                  for name in sorted(self._phases)})
