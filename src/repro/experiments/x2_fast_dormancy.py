"""X2 (extension) — prefetching vs fast dormancy.

Fast dormancy is the OS/radio-layer answer to tail energy: release the
connection ~3 s after the last byte instead of waiting out the
network's timers. It attacks the same waste the paper attacks at the
application layer, so the natural question is whether the advertising
system needs to change at all.

Four cells: {real-time, prefetch} × {standard 3G, 3G with fast
dormancy}, identical traces. The expected story: fast dormancy alone
recovers part of the overhead (each fetch still pays a full promotion),
prefetching alone recovers more, and the two compose.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.metrics.summary import fmt_pct, format_table

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource


@dataclass(frozen=True, slots=True)
class FastDormancyCell:
    serving: str                 # "realtime" | "prefetch"
    radio: str                   # "3g" | "3g-fd"
    ad_j_per_user_day: float
    savings_vs_baseline: float   # vs realtime on standard 3G


@dataclass(frozen=True, slots=True)
class FastDormancyStudy:
    cells: list[FastDormancyCell]

    def cell(self, serving: str, radio: str) -> FastDormancyCell:
        for c in self.cells:
            if c.serving == serving and c.radio == radio:
                return c
        raise KeyError((serving, radio))

    def render(self) -> str:
        rows = [
            (c.serving, c.radio, f"{c.ad_j_per_user_day:.0f}",
             fmt_pct(c.savings_vs_baseline, 1))
            for c in self.cells
        ]
        return format_table(
            ["serving", "radio", "ad J/user/day", "savings vs realtime/3G"],
            rows,
            title="X2: prefetching vs fast dormancy (identical traces)")


def run_x2(config: ExperimentConfig | None = None, *,
           source: "WorldSource | None" = None) -> FastDormancyStudy:
    """Fill the 2x2 grid."""
    from repro.runner import Runner, WorldSource

    config = config or ExperimentConfig()
    source = source or WorldSource()
    cells: list[FastDormancyCell] = []
    baseline = None
    for radio in ("3g", "3g-fd"):
        variant = config.variant(radio=radio)
        comparison = Runner(variant, source=source).run("headline").comparison
        realtime_j = comparison.realtime.energy.ad_joules_per_user_day()
        prefetch_j = comparison.prefetch.energy.ad_joules_per_user_day()
        if baseline is None:
            baseline = realtime_j
        cells.append(FastDormancyCell(
            "realtime", radio, realtime_j, 1.0 - realtime_j / baseline))
        cells.append(FastDormancyCell(
            "prefetch", radio, prefetch_j, 1.0 - prefetch_j / baseline))
    return FastDormancyStudy(cells=cells)
