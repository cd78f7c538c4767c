"""E7 — deadline sweep (paper's SLA-vs-deadline figure).

Two systems across show-by deadlines:

* **static overbooking only** (replication at dispatch time, no rescue):
  tight deadlines leave it no time for the right client to appear, so
  violations fall steeply as the deadline relaxes — the paper's shape;
* **full system** (static + demand-driven rescue): rescue re-replicates
  at-risk ads onto actively-consuming clients, flattening the deadline
  sensitivity into the negligible regime everywhere.

Deadlines shorter than the base epoch shrink the epoch too (inventory
must be sold at least as often as it expires).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.summary import fmt_pct, format_table
from repro.traces.schema import SECONDS_PER_HOUR

from typing import TYPE_CHECKING

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource

DEFAULT_DEADLINES_H = (1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True, slots=True)
class DeadlinePoint:
    deadline_h: float
    epoch_h: float
    system: str                  # "static" | "full"
    sla_violation_rate: float
    revenue_loss: float
    energy_savings: float


@dataclass(frozen=True, slots=True)
class DeadlineSweep:
    points: list[DeadlinePoint]

    def series(self, system: str) -> list[DeadlinePoint]:
        return [p for p in self.points if p.system == system]

    def render(self) -> str:
        rows = [
            (p.system, f"{p.deadline_h:g}h", f"{p.epoch_h:g}h",
             fmt_pct(p.sla_violation_rate), fmt_pct(p.revenue_loss),
             fmt_pct(p.energy_savings))
            for p in self.points
        ]
        return format_table(
            ["system", "deadline D", "epoch T", "SLA violation",
             "revenue loss", "energy savings"],
            rows,
            title="E7: deadline sweep — static overbooking needs deadline "
                  "slack; rescue removes the sensitivity")


def run_e7(config: ExperimentConfig | None = None,
           deadlines_h: tuple[float, ...] = DEFAULT_DEADLINES_H, *,
           source: "WorldSource | None" = None) -> DeadlineSweep:
    """Sweep the show-by deadline for both system variants."""
    from repro.runner import Runner, WorldSource

    config = config or ExperimentConfig()
    source = source or WorldSource()
    points = []
    for d_h in deadlines_h:
        deadline_s = d_h * SECONDS_PER_HOUR
        epoch_s = min(config.epoch_s, deadline_s)
        static = config.variant(
            deadline_s=deadline_s, epoch_s=epoch_s, rescue_horizon_s=None,
            rescue_batch=0, max_replicas=4)
        full = config.variant(
            deadline_s=deadline_s, epoch_s=epoch_s, rescue_horizon_s=None)
        for system, variant in (("static", static), ("full", full)):
            comparison = Runner(variant,
                                source=source).run("headline").comparison
            points.append(DeadlinePoint(
                deadline_h=d_h,
                epoch_h=epoch_s / SECONDS_PER_HOUR,
                system=system,
                sla_violation_rate=comparison.sla_violation_rate,
                revenue_loss=comparison.revenue_loss,
                energy_savings=comparison.energy_savings,
            ))
    return DeadlineSweep(points=points)
