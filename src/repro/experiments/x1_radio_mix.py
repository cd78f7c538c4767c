"""X1 (extension) — radio-technology sensitivity.

The paper evaluates on 3G, where the tail is king. Two forward-looking
questions it raises:

* does the case for prefetching survive on LTE (bigger tail power,
  shorter promotion)?
* how does the benefit erode as users shift to WiFi, whose tail is
  negligible?

Part A runs the headline comparison on homogeneous 3G/LTE/WiFi
populations; part B sweeps the WiFi share of a mixed 3G population.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.metrics.summary import fmt_pct, format_table

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource

WIFI_FRACTIONS = (0.0, 0.3, 0.6, 1.0)


@dataclass(frozen=True, slots=True)
class RadioMixRow:
    label: str
    energy_savings: float
    sla_violation_rate: float
    revenue_loss: float
    realtime_ad_j_per_user_day: float
    prefetch_ad_j_per_user_day: float


@dataclass(frozen=True, slots=True)
class RadioMixStudy:
    homogeneous: list[RadioMixRow]   # 3g / lte / wifi
    mixed: list[RadioMixRow]         # wifi fraction sweep over 3G base

    def row_for(self, label: str) -> RadioMixRow:
        for row in self.homogeneous + self.mixed:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        def rows(items):
            return [(r.label, fmt_pct(r.energy_savings, 1),
                     fmt_pct(r.sla_violation_rate), fmt_pct(r.revenue_loss),
                     f"{r.realtime_ad_j_per_user_day:.0f}",
                     f"{r.prefetch_ad_j_per_user_day:.0f}")
                    for r in items]
        head = ["population", "energy savings", "SLA violation",
                "revenue loss", "realtime J/u/d", "prefetch J/u/d"]
        return (format_table(head, rows(self.homogeneous),
                             title="X1a: homogeneous radio technologies")
                + "\n\n"
                + format_table(head, rows(self.mixed),
                               title="X1b: WiFi share of a 3G population"))


def _row(label: str, comparison) -> RadioMixRow:
    return RadioMixRow(
        label=label,
        energy_savings=comparison.energy_savings,
        sla_violation_rate=comparison.sla_violation_rate,
        revenue_loss=comparison.revenue_loss,
        realtime_ad_j_per_user_day=(
            comparison.realtime.energy.ad_joules_per_user_day()),
        prefetch_ad_j_per_user_day=(
            comparison.prefetch.energy.ad_joules_per_user_day()),
    )


def run_x1(config: ExperimentConfig | None = None, *,
           source: "WorldSource | None" = None) -> RadioMixStudy:
    """Run both radio-technology studies."""
    from repro.runner import Runner, WorldSource

    config = config or ExperimentConfig()
    source = source or WorldSource()

    def headline(variant):
        return Runner(variant, source=source).run("headline").comparison

    homogeneous = []
    for radio in ("3g", "lte", "wifi"):
        variant = config.variant(radio=radio, wifi_fraction=0.0)
        homogeneous.append(_row(radio, headline(variant)))
    mixed = []
    for fraction in WIFI_FRACTIONS:
        variant = config.variant(radio="3g", wifi_fraction=fraction)
        mixed.append(_row(f"wifi={fraction:.0%}", headline(variant)))
    return RadioMixStudy(homogeneous=homogeneous, mixed=mixed)
