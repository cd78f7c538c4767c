"""E8 — prefetch-period sweep (paper's energy-vs-period figure).

Short epochs sync often (fresh predictions, fast invalidation, little
energy amortisation); long epochs amortise the radio but stretch the
feedback loop. Savings saturate once the batch dominates the wakeup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.summary import fmt_pct, format_table
from repro.traces.schema import SECONDS_PER_HOUR

from typing import TYPE_CHECKING

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource

DEFAULT_EPOCHS_H = (0.5, 1.0, 2.0, 3.0)


@dataclass(frozen=True, slots=True)
class EpochPoint:
    epoch_h: float
    energy_savings: float
    sla_violation_rate: float
    revenue_loss: float
    syncs_per_user_day: float


@dataclass(frozen=True, slots=True)
class EpochSweep:
    points: list[EpochPoint]

    def render(self) -> str:
        rows = [
            (f"{p.epoch_h:g}h", fmt_pct(p.energy_savings),
             fmt_pct(p.sla_violation_rate), fmt_pct(p.revenue_loss),
             f"{p.syncs_per_user_day:.1f}")
            for p in self.points
        ]
        return format_table(
            ["epoch T", "energy savings", "SLA violation", "revenue loss",
             "syncs/user/day"],
            rows,
            title="E8: prefetch period sweep (deadline fixed)")


def run_e8(config: ExperimentConfig | None = None,
           epochs_h: tuple[float, ...] = DEFAULT_EPOCHS_H, *,
           source: "WorldSource | None" = None) -> EpochSweep:
    """Sweep the prefetch epoch length at a fixed deadline."""
    from repro.runner import Runner, WorldSource

    config = config or ExperimentConfig()
    source = source or WorldSource()
    points = []
    for t_h in epochs_h:
        epoch_s = t_h * SECONDS_PER_HOUR
        deadline_s = max(config.deadline_s, epoch_s)
        variant = config.variant(epoch_s=epoch_s, deadline_s=deadline_s,
                                 rescue_horizon_s=None)
        comparison = Runner(variant, source=source).run("headline").comparison
        p = comparison.prefetch
        denom = max(p.energy.n_users * p.energy.days, 1.0)
        points.append(EpochPoint(
            epoch_h=t_h,
            energy_savings=comparison.energy_savings,
            sla_violation_rate=comparison.sla_violation_rate,
            revenue_loss=comparison.revenue_loss,
            syncs_per_user_day=p.syncs / denom,
        ))
    return EpochSweep(points=points)
