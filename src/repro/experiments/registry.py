"""Experiment registry: one entry per table/figure (see DESIGN.md §4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runner import WorldSource
from .e1_app_energy import run_e1
from .e2_tail_energy import run_e2
from .e3_traces import run_e3
from .e4_prediction import run_e4
from .e5_e6_overbooking import run_e5_e6
from .e7_deadline import run_e7
from .e8_energy_vs_epoch import run_e8
from .e9_headline import run_e9
from .e10_dispatch import run_e10
from .e11_predictor import run_e11
from .e12_radio_activity import run_e12
from .e13_faults import run_e13
from .x1_radio_mix import run_x1
from .x2_fast_dormancy import run_x2


@dataclass(frozen=True, slots=True)
class Experiment:
    """One reproducible paper artifact.

    ``runner`` is called as ``runner(config, source=source)``; it builds
    every :class:`repro.runner.Runner` it needs from the process-default
    :class:`repro.runner.ExecOptions`.
    """

    id: str
    paper_artifact: str
    title: str
    runner: Callable[..., object]


def _worldless(run: Callable[[], object]) -> Callable[..., object]:
    """Adapt a runner that needs neither a config nor a world."""
    def runner(_config: ExperimentConfig | None, *,
               source: "WorldSource | None" = None) -> object:
        return run()
    return runner


EXPERIMENTS: dict[str, Experiment] = {
    "e1": Experiment("e1", "Table 1", "ad energy in top-15 apps",
                     _worldless(run_e1)),
    "e2": Experiment("e2", "Fig (motivation)", "tail-energy amortisation",
                     _worldless(run_e2)),
    "e3": Experiment("e3", "Fig (dataset)", "trace characterization", run_e3),
    "e4": Experiment("e4", "Fig (models)", "prediction accuracy", run_e4),
    "e5": Experiment("e5", "Fig (SLA vs k)", "overbooking: SLA side",
                     run_e5_e6),
    "e6": Experiment("e6", "Fig (revenue vs k)", "overbooking: revenue side",
                     run_e5_e6),
    "e7": Experiment("e7", "Fig (deadline)", "deadline sweep", run_e7),
    "e8": Experiment("e8", "Fig (period)", "prefetch-period sweep", run_e8),
    "e9": Experiment("e9", "Table 2", "headline end-to-end comparison",
                     run_e9),
    "e10": Experiment("e10", "Ablation", "dispatch-policy ablation",
                      run_e10),
    "e11": Experiment("e11", "Ablation", "client-model ablation", run_e11),
    "e12": Experiment("e12", "Fig (radio)", "radio wakeups & residency",
                      run_e12),
    "e13": Experiment("e13", "Extension", "fault injection & resilience",
                      run_e13),
    "x1": Experiment("x1", "Extension", "radio-technology sensitivity",
                     run_x1),
    "x2": Experiment("x2", "Extension", "prefetching vs fast dormancy",
                     run_x2),
}


def experiment_ids() -> list[str]:
    """All experiment ids, paper artifacts first (e1..e12, then x*)."""
    return sorted(EXPERIMENTS,
                  key=lambda k: (k[0] != "e", int(k[1:])))


def run_experiment(experiment_id: str,
                   config: ExperimentConfig | None = None,
                   jobs: int | None = None, backend: str | None = None,
                   source: "WorldSource | None" = None):
    """Run one experiment by id; returns its figure/table object.

    ``source`` shares one world provider across experiments — e.g. one
    ``WorldSource`` for a whole ``adprefetch run all``. Execution knobs
    come from the process-default :class:`repro.runner.ExecOptions`;
    ``jobs`` and ``backend``, when given, override its ``parallelism``
    and ``backend`` for this one call, and the previous default is
    restored afterwards.
    """
    from repro.runner import default_exec_options, set_default_exec_options

    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {experiment_ids()}") from None
    previous = default_exec_options()
    set_default_exec_options(previous.override(parallelism=jobs,
                                               backend=backend))
    try:
        return experiment.runner(config, source=source)
    finally:
        set_default_exec_options(previous)
