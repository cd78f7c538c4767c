"""Scenario: plugging a custom client model into the system.

The predictor registry makes the client model a drop-in component. This
example implements a day-of-week-aware predictor (weekday and weekend
habits learned separately), registers it, compares it offline against
the built-in suite, and then runs it end to end.

Run:  python examples/custom_predictor.py
"""

import numpy as np

from repro import ExperimentConfig, Runner, WorldSource
from repro.metrics import fmt_pct, format_table
from repro.prediction import (
    EvaluationConfig,
    SlotPredictor,
    compare_models,
    register_predictor,
)


@register_predictor("day_of_week")
class DayOfWeekPredictor(SlotPredictor):
    """Per-epoch-of-day means, kept separately for weekdays/weekends.

    Weekend behaviour differs from weekday behaviour for most users; a
    single time-of-day average blurs the two.
    """

    def __init__(self, epoch_s: float) -> None:
        super().__init__(epoch_s)
        # Two banks: index 0 = weekday, 1 = weekend.
        self._sums = np.zeros((2, self.epochs_per_day))
        self._counts = np.zeros((2, self.epochs_per_day), dtype=np.int64)

    def _bank(self, epoch_index: int) -> int:
        day = epoch_index // self.epochs_per_day
        return 1 if day % 7 >= 5 else 0

    def observe(self, epoch_index: int, actual: int) -> None:
        bank, eod = self._bank(epoch_index), self.epoch_of_day(epoch_index)
        self._sums[bank, eod] += actual
        self._counts[bank, eod] += 1

    def predict(self, epoch_index: int) -> float:
        bank, eod = self._bank(epoch_index), self.epoch_of_day(epoch_index)
        if self._counts[bank, eod] == 0:
            # Fall back to the other bank before predicting zero.
            bank = 1 - bank
            if self._counts[bank, eod] == 0:
                return 0.0
        return float(self._sums[bank, eod] / self._counts[bank, eod])


def main() -> None:
    config = ExperimentConfig(n_users=80, n_days=10, train_days=6, seed=29)
    source = WorldSource()
    world = source.world_for(config)

    print("Offline accuracy (test days, online evaluation):")
    summaries = compare_models(
        ["time_of_day", "ewma", "day_of_week"],
        world.trace, world.refresh_of,
        EvaluationConfig(epoch_s=config.epoch_s,
                         train_days=config.train_days))
    print(format_table(
        ["model", "MAE", "RMSE", "bias"],
        [(s.model, f"{s.mae:.2f}", f"{s.rmse:.2f}", f"{s.bias:+.2f}")
         for s in summaries]))

    print("\nEnd to end (the metric that matters):")
    rows = []
    for predictor in ("ewma", "day_of_week"):
        # The shared source replays the realtime baseline once.
        result = Runner(config.variant(predictor=predictor),
                        source=source).run("headline").comparison
        rows.append((predictor,
                     fmt_pct(result.energy_savings, 1),
                     fmt_pct(result.revenue_loss),
                     fmt_pct(result.sla_violation_rate)))
    print(format_table(
        ["predictor", "energy savings", "revenue loss", "SLA violation"],
        rows))


if __name__ == "__main__":
    main()
