"""E10 — ablation: dispatch-policy choice.

Same world, same predictions; only the replica-placement strategy
changes. Shows what each piece of the staggered model buys over random
replication and duplicate-blind backfilling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.summary import fmt_pct, format_table

from typing import TYPE_CHECKING

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource

POLICY_VARIANTS: tuple[tuple[str, dict], ...] = (
    ("no-replication", {}),
    ("random-k", {}),
    ("greedy-backfill", {}),
    ("staggered", {}),
)


@dataclass(frozen=True, slots=True)
class DispatchRow:
    policy: str
    sla_violation_rate: float
    revenue_loss: float
    energy_savings: float
    duplicates_per_sale: float
    mean_replication: float


@dataclass(frozen=True, slots=True)
class DispatchAblation:
    rows: list[DispatchRow]
    max_replicas: int

    def row_for(self, policy: str) -> DispatchRow:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(policy)

    def render(self) -> str:
        table = [
            (r.policy, fmt_pct(r.sla_violation_rate), fmt_pct(r.revenue_loss),
             fmt_pct(r.energy_savings), f"{r.duplicates_per_sale:.3f}",
             f"{r.mean_replication:.2f}")
            for r in self.rows
        ]
        return format_table(
            ["policy", "SLA violation", "revenue loss", "energy savings",
             "dups/sale", "mean k"],
            table,
            title=f"E10: dispatch-policy ablation (max_replicas="
                  f"{self.max_replicas}; rescue off except final row)")


def _row(policy_name: str, comparison) -> DispatchRow:
    p = comparison.prefetch
    dups = (p.revenue.duplicate_impressions / p.sla.n_sales
            if p.sla.n_sales else 0.0)
    return DispatchRow(
        policy=policy_name,
        sla_violation_rate=comparison.sla_violation_rate,
        revenue_loss=comparison.revenue_loss,
        energy_savings=comparison.energy_savings,
        duplicates_per_sale=dups,
        mean_replication=p.mean_replication,
    )


def run_e10(config: ExperimentConfig | None = None,
            max_replicas: int = 4, *,
            source: "WorldSource | None" = None) -> DispatchAblation:
    """Compare dispatch policies with the rest of the system fixed."""
    from repro.runner import Runner, WorldSource

    base = (config or ExperimentConfig()).variant(
        max_replicas=max_replicas, rescue_batch=0)
    source = source or WorldSource()

    def headline(variant):
        return Runner(variant, source=source).run("headline").comparison

    rows = []
    for policy, kwargs in POLICY_VARIANTS:
        pk = dict(kwargs)
        if policy == "random-k":
            pk["k"] = max_replicas
        variant = base.variant(policy=policy, policy_kwargs=pk)
        rows.append(_row(policy, headline(variant)))
    original = config or ExperimentConfig()
    full = base.variant(policy="staggered",
                        max_replicas=original.max_replicas,
                        rescue_batch=original.rescue_batch)
    rows.append(_row("staggered+rescue", headline(full)))
    return DispatchAblation(rows=rows, max_replicas=max_replicas)
