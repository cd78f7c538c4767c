"""Command-line interface.

::

    adprefetch list                       # what can be reproduced
    adprefetch run e9 --users 400         # one experiment
    adprefetch run all --users 200        # everything
    adprefetch headline --users 200       # just the abstract's claim
    adprefetch report out.md --users 150  # full markdown report
    adprefetch trace out.jsonl --users 50 # dump a synthetic trace
    adprefetch obs summarize runs/        # render run artifacts
    adprefetch obs validate runs/run-000-headline/trace.jsonl
    adprefetch obs ledger list            # the committed run ledger
    adprefetch obs ledger regress         # CI perf/behaviour gate
    adprefetch obs postmortem list        # flight-recorder black boxes
    adprefetch obs postmortem show obs-runs/postmortems/shard-003-crash.json

``run``, ``headline``, and ``report`` accept ``--jobs N`` to execute
user shards across N worker processes through the :mod:`repro.dist`
coordinator (one pipe per worker, heartbeat-renewed leases, retry;
DESIGN.md §13; see :class:`repro.runner.Runner` — results are
bit-for-bit identical at any ``--jobs``) and
``--backend event|batched`` to pick the shard execution engine
(``batched`` vectorizes the hot paths and is bit-identical to the
reference engine under the contract in :mod:`repro.sim.batched`; see
DESIGN.md §10). They also accept
the observability flags: ``--metrics-out DIR`` writes one
``run-NNN-<system>`` artifact directory per run holding one
``run.json`` (run record, config, merged metrics, wall-clock profile,
resource telemetry), and ``--trace`` additionally records the
sim-time trace (JSONL plus a Chrome ``trace_event`` export loadable in
Perfetto; implies ``--metrics-out`` defaulting to ``./obs-runs``), and
``--ledger PATH`` appends one deterministic
:class:`repro.obs.ledger.RunRecord` per run to that JSONL ledger.
``--verbose`` turns on the shared :mod:`repro.obs.log` diagnostics.
``--progress`` switches on the live telemetry plane
(:mod:`repro.obs.live`): streamed shard heartbeats rendered as a live
progress line on stderr, a straggler/stall watchdog, and flight-recorder
postmortems for crashed or lost shards (``--beat-interval`` tunes the
heartbeat pacing; results stay bit-identical with the plane on or off).
``run``, ``headline``, and ``report`` also accept ``--faults plan.json``
to inject deterministic faults (see :mod:`repro.faults`); results stay
bit-identical at any ``--jobs`` for any plan.
They stay bit-identical under a ``--chaos plan.json`` plan of seeded
worker kills and duplicated results, which always runs through the
coordinator, even at ``--jobs 1``. ``--shards``/``--max-shards``
control the shard layout (semantic knobs; the historical silent clamp
at 16 auto shards is now visible as a ``runner.auto_shards_clamped``
counter).
The count flags and ``--beat-interval`` must be positive, and
``--beat-interval`` must stay below the 30 s stall window; anything
else is a one-line usage error (exit 2).

Each ``run``/``headline``/``report`` invocation installs its execution
flags as one process-default :class:`repro.runner.ExecOptions` (which
holds every execution default, e.g. ``--jobs 1`` and ``--backend
event``) and its observability flags as one
:class:`repro.obs.runtime.ObsOptions`; every ``Runner`` downstream
reads them, and the next invocation replaces both, so no flag outlives
its call.

(Equivalently: ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path
from typing import Callable, TypeVar

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import BACKENDS
from repro.experiments.registry import experiment_ids, run_experiment

_N = TypeVar("_N", int, float)


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=400,
                        help="population size (paper: 1750)")
    parser.add_argument("--days", type=int, default=10,
                        help="trace length in days (paper: 14)")
    parser.add_argument("--train-days", type=int, default=6,
                        help="days used to warm the models")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--radio", default="3g",
                        choices=("3g", "3g-fd", "lte", "wifi"))


def _positive(cast: Callable[[str], _N]) -> Callable[[str], _N]:
    """argparse ``type=`` wrapper: parse with ``cast``, require > 0."""
    def parse(text: str) -> _N:
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}") from None
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text!r}")
        return value
    return parse


def _beat_interval(text: str) -> float:
    """``--beat-interval``: positive and below the stall window."""
    from repro.obs.live import LiveOptions

    value = _positive(float)(text)
    try:
        LiveOptions(beat_interval_s=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive(int), default=None,
                        help="worker processes for shard execution "
                             "(default: 1); above 1 the repro.dist "
                             "coordinator dispatches shards to them "
                             "(results identical at any value; see "
                             "DESIGN.md §13)")
    parser.add_argument("--backend", default=None,
                        choices=BACKENDS,
                        help="shard execution engine (default: event): "
                             "the reference event-driven engine or the "
                             "vectorized batched engine (equivalent "
                             "under the contract in repro.sim.batched; "
                             "see DESIGN.md §10)")
    parser.add_argument("--shards", type=_positive(int), default=None,
                        help="explicit shard count (a semantic knob: "
                             "each shard serves a shard-local ad-server "
                             "view; default: derived from --users)")
    parser.add_argument("--max-shards", type=_positive(int), default=None,
                        help="clamp on the auto-selected shard count "
                             "(default: 16; the run's metrics carry a "
                             "runner.auto_shards_clamped counter when "
                             "the clamp bites)")
    parser.add_argument("--chaos", metavar="PLAN.json", default=None,
                        help="coordinator chaos plan (JSON; see "
                             "repro.faults.CoordinatorChaos): seeded "
                             "worker kills, duplicated and delayed "
                             "results. The run goes through the "
                             "coordinator even at --jobs 1; results "
                             "must stay bit-identical under any plan")


def _add_faults_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="fault-injection plan (JSON; see "
                             "repro.faults.FaultPlan). Omitted or empty "
                             "== no faults, bit-identical to a run "
                             "without the subsystem")


#: Default artifact directory when ``--trace`` is given bare.
DEFAULT_OBS_DIR = "obs-runs"


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="record the sim-time trace (JSONL + Chrome "
                             "trace_event export; results stay "
                             "bit-identical)")
    parser.add_argument("--metrics-out", metavar="DIR", default=None,
                        help="write one run-NNN-<label>/run.json per run "
                             "(record, config, metrics, profile, "
                             "resources) under DIR")
    parser.add_argument("--ledger", metavar="PATH", default=None,
                        help="append one RunRecord per run to this JSONL "
                             "ledger (deterministic fields only; timings "
                             "stay in run.json)")
    parser.add_argument("--verbose", action="store_true",
                        help="enable repro.obs.log diagnostics on stderr")
    parser.add_argument("--progress", action="store_true",
                        help="live shard progress on stderr (single-line "
                             "refresh on a TTY, plain lines when piped) "
                             "via the repro.obs.live telemetry plane; "
                             "results stay bit-identical")
    parser.add_argument("--beat-interval", type=_beat_interval,
                        metavar="SECONDS",
                        default=1.0,
                        help="min wall-clock seconds between shard "
                             "heartbeats when the live plane is on "
                             "(default: 1.0; must stay below the 30 s "
                             "stall window)")


def _install_options(args: argparse.Namespace) -> None:
    """Install the CLI's observability and execution flags as the
    process defaults.

    ``Runner`` instances created anywhere downstream (experiment
    registry, report writer) pick them up via
    :func:`repro.obs.runtime.default_obs_options` and
    :func:`repro.runner.default_exec_options`. Both are installed on
    every call, so one call's flags never leak into the next.
    """
    from repro.faults.chaos import CoordinatorChaos
    from repro.obs import log
    from repro.obs.live import LiveOptions
    from repro.obs.runtime import ObsOptions, set_default_obs_options
    from repro.runner import ExecOptions, set_default_exec_options

    if args.verbose:
        log.enable(logging.DEBUG)
    metrics_out = args.metrics_out
    if metrics_out is None and args.trace:
        metrics_out = DEFAULT_OBS_DIR
    live = None
    if args.progress:
        # The postmortem directory rides beside the run artifacts (or
        # under the default obs dir when none was requested).
        live = LiveOptions(
            beat_interval_s=args.beat_interval,
            progress=True,
            postmortem_dir=Path(metrics_out or DEFAULT_OBS_DIR)
            / "postmortems")
    obs = None
    if metrics_out is not None or args.ledger is not None or live is not None:
        obs = ObsOptions(
            out_dir=Path(metrics_out) if metrics_out is not None else None,
            trace=args.trace,
            ledger=Path(args.ledger) if args.ledger is not None else None,
            live=live)
    set_default_obs_options(obs)
    chaos = (CoordinatorChaos.from_json_file(args.chaos)
             if args.chaos is not None else None)
    set_default_exec_options(ExecOptions().override(
        parallelism=args.jobs, backend=args.backend, shards=args.shards,
        max_shards=args.max_shards, chaos=chaos))


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    from repro.faults.plan import FaultPlan

    plan_path = getattr(args, "faults", None)
    faults = (FaultPlan.from_json_file(plan_path)
              if plan_path is not None else FaultPlan())
    return ExperimentConfig(
        n_users=args.users,
        n_days=args.days,
        train_days=args.train_days,
        seed=args.seed,
        radio=args.radio,
        faults=faults,
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS
    for eid in experiment_ids():
        exp = EXPERIMENTS[eid]
        print(f"{eid:>4}  {exp.paper_artifact:<18} {exp.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import WorldSource

    _install_options(args)
    config = _config_from(args)
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    source = WorldSource()  # one world provider for the whole invocation
    for eid in ids:
        started = time.perf_counter()
        result = run_experiment(eid, config, source=source)
        print(result.render())
        print(f"[{eid} took {time.perf_counter() - started:.1f}s]\n")
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from repro.metrics.summary import fmt_pct
    from repro.runner import Runner

    _install_options(args)
    result = Runner(_config_from(args)).run("headline")
    comparison = result.comparison
    print("Paper claim: >50% ad-energy reduction, negligible revenue "
          "loss and SLA violation rate.")
    print(f"  energy savings     {fmt_pct(comparison.energy_savings, 1)}")
    print(f"  revenue loss       {fmt_pct(comparison.revenue_loss)}")
    print(f"  SLA violation rate {fmt_pct(comparison.sla_violation_rate)}")
    print(f"  wakeup reduction   {fmt_pct(comparison.wakeup_reduction, 1)}")
    print(f"  [{result.n_shards} shard(s) x {result.parallelism} worker(s), "
          f"{result.elapsed_s:.1f}s]")
    if result.dist is not None:
        stats = result.dist
        print(f"  [dist: {stats.workers_spawned} worker(s) spawned, "
              f"{stats.workers_lost} lost, {stats.requeues} requeue(s), "
              f"{stats.duplicates_discarded} duplicate(s) discarded]")
    if result.artifacts_dir is not None:
        print(f"  [run artifacts: {result.artifacts_dir}]")
    for postmortem in result.postmortems:
        print(f"  [postmortem: {postmortem}]")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    _install_options(args)
    ids = args.only.split(",") if args.only else None
    path = write_report(args.path, _config_from(args), ids=ids)
    print(f"report written to {path}")
    return 0


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs.summarize import SummarizeError, summarize

    if not Path(args.dir).exists():
        print(f"error: {args.dir}: no such file or directory",
              file=sys.stderr)
        return 1
    try:
        print(summarize(args.dir))
    except SummarizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_ledger(args: argparse.Namespace) -> int:
    from repro.obs.ledger import (DEFAULT_LEDGER_PATH, Ledger, LedgerError,
                                  diff_records, regress, render_list,
                                  render_record)

    path = Path(args.ledger_path) if args.ledger_path else DEFAULT_LEDGER_PATH
    ledger = Ledger(path)
    try:
        if args.ledger_command == "list":
            print(render_list(ledger.records()))
            return 0
        if args.ledger_command == "show":
            print(render_record(ledger.resolve(args.ref)))
            return 0
        if args.ledger_command == "diff":
            baseline = ledger.resolve(args.baseline_ref)
            candidate = ledger.resolve(args.candidate_ref)
            problems = diff_records(baseline, candidate,
                                    rel_tol=args.rel_tol)
            if problems:
                for problem in problems:
                    print(problem)
                return 1
            print(f"records {baseline.record_id} and "
                  f"{candidate.record_id} agree")
            return 0
        # regress
        current = ledger.records()
        if not current:
            print(f"error: {path}: ledger is empty or missing",
                  file=sys.stderr)
            return 1
        baseline_records = (Ledger(args.baseline).records()
                            if args.baseline else None)
        report = regress(current, baseline_records, rel_tol=args.rel_tol)
        print(report.render())
        if not report.ok:
            return 1
        if report.compared == 0 and not args.allow_empty:
            print("error: no run key had a baseline to regress against "
                  "(pass --allow-empty to tolerate)", file=sys.stderr)
            return 1
        return 0
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_obs_postmortem(args: argparse.Namespace) -> int:
    from repro.obs.flightrec import Postmortem, list_postmortems

    if args.postmortem_command == "show":
        try:
            print(Postmortem.load(args.path).render())
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    # list
    directory = args.dir
    paths = list_postmortems(directory)
    if not paths:
        print(f"no postmortems under {directory}")
        return 0
    for path in paths:
        try:
            postmortem = Postmortem.load(path)
        except (OSError, ValueError) as exc:
            print(f"{path}  [unreadable] {exc}")
            continue
        print(f"{path}  [{postmortem.kind}] shard "
              f"{postmortem.shard_index}/{postmortem.n_shards}  "
              f"{postmortem.reason}")
    return 0


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    from repro.obs.trace import validate_jsonl

    problems = validate_jsonl(args.path)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    print(f"{args.path}: valid repro.obs trace")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.runner import WorldSource
    from repro.traces.io import write_trace

    world = WorldSource().world_for(_config_from(args))
    count = write_trace(world.trace, args.path)
    print(f"wrote {count} sessions for {world.trace.n_users} users "
          f"to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adprefetch",
        description="Reproduction of 'Prefetching Mobile Ads' "
                    "(EuroSys 2013)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list reproducible artifacts")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment",
                       choices=experiment_ids() + ["all"])
    _add_world_args(p_run)
    _add_jobs_arg(p_run)
    _add_faults_arg(p_run)
    _add_obs_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_head = sub.add_parser("headline", help="reproduce the abstract claim")
    _add_world_args(p_head)
    _add_jobs_arg(p_head)
    _add_faults_arg(p_head)
    _add_obs_args(p_head)
    p_head.set_defaults(func=_cmd_headline)

    p_report = sub.add_parser("report",
                              help="run experiments, write a markdown report")
    p_report.add_argument("path")
    p_report.add_argument("--only", default="",
                          help="comma-separated experiment ids")
    _add_world_args(p_report)
    _add_jobs_arg(p_report)
    _add_faults_arg(p_report)
    _add_obs_args(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_trace = sub.add_parser("trace", help="generate a synthetic trace file")
    p_trace.add_argument("path")
    _add_world_args(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_obs = sub.add_parser("obs", help="inspect observability artifacts")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_sum = obs_sub.add_parser("summarize",
                               help="render run directories as tables")
    p_sum.add_argument("dir", help="artifact root (or one run directory)")
    p_sum.set_defaults(func=_cmd_obs_summarize)
    p_val = obs_sub.add_parser("validate",
                               help="validate a JSONL trace against the "
                                    "repro.obs.trace schema")
    p_val.add_argument("path")
    p_val.set_defaults(func=_cmd_obs_validate)

    p_pm = obs_sub.add_parser(
        "postmortem", help="inspect flight-recorder postmortems written "
                           "by the live telemetry plane")
    pm_sub = p_pm.add_subparsers(dest="postmortem_command", required=True)
    pm_show = pm_sub.add_parser("show", help="render one postmortem file")
    pm_show.add_argument("path", help="a shard-NNN-<kind>.json file")
    pm_show.set_defaults(func=_cmd_obs_postmortem)
    pm_list = pm_sub.add_parser("list", help="one line per postmortem")
    pm_list.add_argument("dir", nargs="?",
                         default=str(Path(DEFAULT_OBS_DIR) / "postmortems"),
                         help="postmortem directory (default: "
                              "obs-runs/postmortems)")
    pm_list.set_defaults(func=_cmd_obs_postmortem)

    p_ledger = obs_sub.add_parser(
        "ledger", help="inspect or gate the append-only run ledger")
    p_ledger.add_argument("--ledger-path", metavar="PATH", default=None,
                          help="ledger file (default: benchmarks/"
                               "ledger.jsonl)")
    ledger_sub = p_ledger.add_subparsers(dest="ledger_command",
                                         required=True)
    pl_list = ledger_sub.add_parser("list", help="one line per record")
    pl_list.set_defaults(func=_cmd_obs_ledger)
    pl_show = ledger_sub.add_parser("show", help="render one record")
    pl_show.add_argument("ref", nargs="?", default="latest",
                         help="seq number (negative counts from the "
                              "end), id prefix, or 'latest'")
    pl_show.set_defaults(func=_cmd_obs_ledger)
    pl_diff = ledger_sub.add_parser(
        "diff", help="compare two records under the tolerance contract")
    pl_diff.add_argument("baseline_ref")
    pl_diff.add_argument("candidate_ref")
    pl_diff.add_argument("--rel-tol", type=float, default=0.0,
                         help="extra relative tolerance for metrics not "
                              "covered by the contract")
    pl_diff.set_defaults(func=_cmd_obs_ledger)
    pl_reg = ledger_sub.add_parser(
        "regress", help="gate the latest record of every run key "
                        "against its baseline (CI)")
    pl_reg.add_argument("--baseline", metavar="LEDGER", default=None,
                        help="explicit baseline ledger (default: the "
                             "ledger is its own history)")
    pl_reg.add_argument("--rel-tol", type=float, default=0.0,
                        help="extra relative tolerance for uncovered "
                             "metrics")
    pl_reg.add_argument("--allow-empty", action="store_true",
                        help="exit 0 even when no run key had a "
                             "baseline to compare against")
    pl_reg.set_defaults(func=_cmd_obs_ledger)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
