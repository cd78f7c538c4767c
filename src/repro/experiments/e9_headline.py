"""E9 — the headline end-to-end comparison (paper Table 2).

Real-time vs naive prefetch vs the paper's system vs the oracle bound,
on the identical trace window. The abstract's claim to reproduce:
**over 50% ad-energy reduction with negligible revenue loss and SLA
violation rate**.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.presets import apply_preset
from repro.metrics.outcomes import Comparison
from repro.metrics.summary import fmt_pct, fmt_si, format_table

from typing import TYPE_CHECKING

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource

SYSTEMS = ("naive-prefetch", "overbooking", "oracle")


@dataclass(frozen=True, slots=True)
class HeadlineRow:
    system: str
    energy_savings: float
    revenue_loss: float
    sla_violation_rate: float
    wakeup_reduction: float
    prefetch_served_rate: float
    ad_joules_per_user_day: float


@dataclass(frozen=True, slots=True)
class HeadlineTable:
    """Table 2: one row per system plus the real-time reference."""

    realtime_ad_joules_per_user_day: float
    realtime_billed: float
    rows: list[HeadlineRow]

    def row_for(self, system: str) -> HeadlineRow:
        for row in self.rows:
            if row.system == system:
                return row
        raise KeyError(system)

    def render(self) -> str:
        table_rows = [("realtime", "-", "-", "-", "-", "-",
                       f"{self.realtime_ad_joules_per_user_day:.0f}")]
        for r in self.rows:
            table_rows.append((
                r.system, fmt_pct(r.energy_savings, 1),
                fmt_pct(r.revenue_loss), fmt_pct(r.sla_violation_rate),
                fmt_pct(r.wakeup_reduction, 1),
                fmt_pct(r.prefetch_served_rate, 1),
                f"{r.ad_joules_per_user_day:.0f}",
            ))
        return format_table(
            ["system", "energy savings", "revenue loss", "SLA violation",
             "wakeup cut", "prefetch-served", "ad J/user/day"],
            table_rows,
            title="E9 (Table 2): end-to-end comparison — paper claims "
                  ">50% energy savings, negligible loss & violations\n"
                  f"(realtime billed revenue: {fmt_si(self.realtime_billed)})")


def _row(system: str, comparison: Comparison) -> HeadlineRow:
    p = comparison.prefetch
    return HeadlineRow(
        system=system,
        energy_savings=comparison.energy_savings,
        revenue_loss=comparison.revenue_loss,
        sla_violation_rate=comparison.sla_violation_rate,
        wakeup_reduction=comparison.wakeup_reduction,
        prefetch_served_rate=p.prefetch_served_rate,
        ad_joules_per_user_day=p.energy.ad_joules_per_user_day(),
    )


def run_e9(config: ExperimentConfig | None = None,
           systems: tuple[str, ...] = SYSTEMS, *,
           source: "WorldSource | None" = None) -> HeadlineTable:
    """Run every system preset on the same world."""
    from repro.runner import Runner, WorldSource

    config = config or ExperimentConfig()
    source = source or WorldSource()
    realtime = Runner(config, source=source).run("realtime").realtime
    rows = [
        _row(system,
             Runner(apply_preset(system, config),
                    source=source).run("headline").comparison)
        for system in systems
    ]
    return HeadlineTable(
        realtime_ad_joules_per_user_day=realtime.energy.ad_joules_per_user_day(),
        realtime_billed=realtime.billed_revenue,
        rows=rows,
    )
