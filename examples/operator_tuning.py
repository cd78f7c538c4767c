"""Scenario: an ad-network operator tunes the prefetching system.

The operator must pick a show-by deadline and how aggressively to sell
predicted inventory before enabling prefetching for a user population.
This example sweeps the two knobs on a synthetic cohort and prints the
trade-off surface plus a recommendation — the workflow behind the
paper's deadline figure.

Run:  python examples/operator_tuning.py
"""

from repro import ExperimentConfig, Runner, WorldSource
from repro.metrics import fmt_pct, format_table

#: Operator requirements.
MAX_SLA_VIOLATION = 0.02
MAX_REVENUE_LOSS = 0.03

DEADLINES_H = (2.0, 4.0, 8.0)
SELL_FACTORS = (0.7, 0.8, 0.9)


def main() -> None:
    base = ExperimentConfig(n_users=80, n_days=8, train_days=4, seed=13)
    # One source for every variant: its world and its realtime
    # baseline are built once and shared by all nine runs.
    source = WorldSource()
    print(f"Tuning on {base.n_users} users, {base.test_days} test days...\n")

    rows = []
    candidates = []
    for deadline_h in DEADLINES_H:
        for sell_factor in SELL_FACTORS:
            config = base.variant(deadline_s=deadline_h * 3600.0,
                                  sell_factor=sell_factor)
            result = Runner(config, source=source).run("headline").comparison
            rows.append((
                f"{deadline_h:g}h", f"{sell_factor:g}",
                fmt_pct(result.energy_savings, 1),
                fmt_pct(result.revenue_loss),
                fmt_pct(result.sla_violation_rate),
            ))
            if (result.sla_violation_rate <= MAX_SLA_VIOLATION
                    and result.revenue_loss <= MAX_REVENUE_LOSS):
                candidates.append((result.energy_savings, deadline_h,
                                   sell_factor, result))

    print(format_table(
        ["deadline", "sell factor", "energy savings", "revenue loss",
         "SLA violation"],
        rows, title="Operating-point sweep"))

    print()
    if not candidates:
        print("No operating point meets the requirements; relax the "
              "deadline or the SLA target.")
        return
    savings, deadline_h, sell_factor, best = max(candidates)
    print(f"Recommendation: deadline={deadline_h:g}h, "
          f"sell_factor={sell_factor:g}")
    print(f"  -> saves {fmt_pct(savings, 1)} of ad energy at "
          f"{fmt_pct(best.revenue_loss)} revenue loss and "
          f"{fmt_pct(best.sla_violation_rate)} SLA violations")


if __name__ == "__main__":
    main()
