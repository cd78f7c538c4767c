"""E13 — fault tolerance: SLA, revenue and energy under injected faults.

The paper's affordability argument assumes the network and the ad server
mostly work. E13 stresses that assumption with the :mod:`repro.faults`
injector: transfer loss, per-user connectivity outages, a scheduled
server blackout, sync latency inflation and device churn, all scaled by
one *intensity* knob. Three systems face the identical fault
environment:

* ``realtime`` — the status-quo baseline. Every failed per-slot fetch
  is a missed ad (there is no cache to fall back on).
* ``prefetch`` — prefetching with overbooking but no rescue path
  (``rescue_batch=0``): the cache absorbs faults until deadlines pass.
* ``prefetch+rescue`` — the full system plus contact-staleness rescue
  (``presumed_dark_after_s``): replicas on presumed-dark devices are
  re-dispatched to live ones.

Each system's revenue loss and energy overhead are measured against its
*own* zero-fault run, so the table isolates what faults cost rather than
re-stating E9. The headline acceptance check: the rescue system's SLA
violation rate stays strictly below real-time's ad-miss rate at every
non-zero intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultPlan
from repro.metrics.summary import fmt_pct, fmt_si, format_table
from repro.traces.schema import SECONDS_PER_DAY

from typing import TYPE_CHECKING

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource

#: Fault intensities swept (0 = the inert plan, the bit-identity anchor).
INTENSITIES = (0.0, 0.05, 0.15, 0.3)

SYSTEMS = ("realtime", "prefetch", "prefetch+rescue")


def plan_for(intensity: float, config: ExperimentConfig) -> FaultPlan:
    """Scale every fault mode by one intensity knob in [0, 1).

    Zero returns the empty plan (no injector is built). Non-zero plans
    combine transfer loss, connectivity outages, a single server
    blackout inside the test window, latency inflation and churn.
    """
    if intensity == 0.0:
        return FaultPlan()
    test_start = config.train_days * SECONDS_PER_DAY
    blackout_start = test_start + 6 * 3600.0
    blackout_end = blackout_start + intensity * 8 * 3600.0
    return FaultPlan(
        loss_prob=intensity,
        outage_rate_per_day=8.0 * intensity,
        outage_duration_s=900.0,
        server_outages=((blackout_start, blackout_end),),
        latency_mean_s=30.0 * intensity,
        churn_prob=0.3 * intensity,
    )


@dataclass(frozen=True, slots=True)
class FaultRow:
    """One (intensity, system) cell of the E13 sweep."""

    intensity: float
    system: str
    #: SLA violation rate for prefetch systems; ad-miss rate (unfilled
    #: slots / total slots) for real time — each system's broken-promise
    #: metric under faults.
    failure_rate: float
    billed_revenue: float
    #: Revenue loss vs the same system's zero-fault run.
    revenue_loss: float
    ad_joules_per_user_day: float
    #: Ad-energy overhead vs the same system's zero-fault run.
    energy_overhead: float


@dataclass(frozen=True, slots=True)
class FaultTable:
    """E13: fault-intensity sweep across serving systems."""

    rows: list[FaultRow]

    def row_for(self, intensity: float, system: str) -> FaultRow:
        for row in self.rows:
            if row.intensity == intensity and row.system == system:
                return row
        raise KeyError((intensity, system))

    def render(self) -> str:
        table_rows = []
        for r in self.rows:
            table_rows.append((
                f"{r.intensity:.2f}", r.system,
                fmt_pct(r.failure_rate), fmt_si(r.billed_revenue),
                fmt_pct(r.revenue_loss), f"{r.ad_joules_per_user_day:.0f}",
                fmt_pct(r.energy_overhead, 1),
            ))
        return format_table(
            ["intensity", "system", "SLA viol/miss", "revenue",
             "rev loss vs clean", "ad J/user/day", "energy overhead"],
            table_rows,
            title="E13: fault injection — SLA, revenue and energy vs "
                  "fault intensity\n(loss/overhead relative to each "
                  "system's own zero-fault run)")


def _system_config(system: str, config: ExperimentConfig,
                   plan: FaultPlan) -> ExperimentConfig:
    if system == "realtime":
        return config.variant(faults=plan)
    if system == "prefetch":
        return config.variant(rescue_batch=0, faults=plan)
    if system == "prefetch+rescue":
        return config.variant(
            presumed_dark_after_s=2.0 * config.epoch_s, faults=plan)
    raise ValueError(f"unknown E13 system {system!r}")


def run_e13(config: ExperimentConfig | None = None, *,
            intensities: tuple[float, ...] = INTENSITIES,
            source: "WorldSource | None" = None) -> FaultTable:
    """Sweep fault intensity for each serving system on one world."""
    from repro.runner import Runner, WorldSource

    config = config or ExperimentConfig()
    source = source or WorldSource()
    rows: list[FaultRow] = []
    for system in SYSTEMS:
        baseline_revenue = 0.0
        baseline_joules = 0.0
        for intensity in intensities:
            run_config = _system_config(system, config,
                                        plan_for(intensity, config))
            runner = Runner(run_config, source=source)
            if system == "realtime":
                outcome = runner.run("realtime").realtime
                failure_rate = (outcome.unfilled_slots / outcome.total_slots
                                if outcome.total_slots else 0.0)
                revenue = outcome.billed_revenue
            else:
                outcome = runner.run("prefetch").prefetch
                failure_rate = outcome.sla.violation_rate
                revenue = outcome.revenue.total_billed
            joules = outcome.energy.ad_joules_per_user_day()
            if intensity == 0.0:
                baseline_revenue, baseline_joules = revenue, joules
            rows.append(FaultRow(
                intensity=intensity,
                system=system,
                failure_rate=failure_rate,
                billed_revenue=revenue,
                revenue_loss=(1.0 - revenue / baseline_revenue
                              if baseline_revenue else 0.0),
                ad_joules_per_user_day=joules,
                energy_overhead=(joules / baseline_joules - 1.0
                                 if baseline_joules else 0.0),
            ))
    return FaultTable(rows=rows)
