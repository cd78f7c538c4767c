"""E11 — ablation: client-model choice, end to end.

E4 measures offline accuracy; this experiment measures what accuracy is
*worth* once the overbooking layer is in the loop. The paper's point is
the gap between simple models and the oracle should be small on the
metrics that matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.summary import fmt_pct, format_table

from typing import TYPE_CHECKING

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource

DEFAULT_PREDICTORS = ("last_value", "global_mean", "time_of_day", "ewma",
                      "hybrid", "oracle")


@dataclass(frozen=True, slots=True)
class PredictorRow:
    predictor: str
    energy_savings: float
    revenue_loss: float
    sla_violation_rate: float
    prefetch_served_rate: float


@dataclass(frozen=True, slots=True)
class PredictorAblation:
    rows: list[PredictorRow]

    def row_for(self, predictor: str) -> PredictorRow:
        for row in self.rows:
            if row.predictor == predictor:
                return row
        raise KeyError(predictor)

    def render(self) -> str:
        table = [
            (r.predictor, fmt_pct(r.energy_savings, 1),
             fmt_pct(r.revenue_loss), fmt_pct(r.sla_violation_rate),
             fmt_pct(r.prefetch_served_rate, 1))
            for r in self.rows
        ]
        return format_table(
            ["predictor", "energy savings", "revenue loss", "SLA violation",
             "prefetch-served"],
            table,
            title="E11: end-to-end sensitivity to the client model")


def run_e11(config: ExperimentConfig | None = None,
            predictors: tuple[str, ...] = DEFAULT_PREDICTORS, *,
            source: "WorldSource | None" = None) -> PredictorAblation:
    """Swap the client model; keep everything else fixed."""
    from repro.runner import Runner, WorldSource

    config = config or ExperimentConfig()
    source = source or WorldSource()
    rows = []
    for predictor in predictors:
        variant = config.variant(predictor=predictor)
        comparison = Runner(variant, source=source).run("headline").comparison
        rows.append(PredictorRow(
            predictor=predictor,
            energy_savings=comparison.energy_savings,
            revenue_loss=comparison.revenue_loss,
            sla_violation_rate=comparison.sla_violation_rate,
            prefetch_served_rate=comparison.prefetch.prefetch_served_rate,
        ))
    return PredictorAblation(rows=rows)
