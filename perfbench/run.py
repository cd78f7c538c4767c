"""Benchmark entry point: one workload, measured for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload headline-batched --seed 7 \\
        --seconds 35 --trace 0

Repetitions run in a closed loop, one at a time, in one fresh process
(``perfbench.rep``): each is set-up (a cold world build) then the timed
workload run, until ``--seconds`` have passed (at least three). The
end-to-end metrics are medians over them. With ``--trace 1`` half the
time goes to untraced repetitions, then two traced repetitions, each in
a fresh process, give the per-layer table instead.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run
(machine, every repetition, every failed check) is written under
``.perfbench-out/``. Exits non-zero, printing no result, when the
checkout holds no program source or no repetition completes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import ``perfbench.*``, not this directory's files

from perfbench import checks, metrics  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TRACED_REPS = 2
#: A run must end within 180 s: the untraced loop starts no repetition
#: past ``rep.BUDGET_S``, and each process has a hard timeout.
UNTRACED_TIMEOUT_S = 120.0
TRACED_TIMEOUT_S = 25.0
OUT_DIR = ROOT / ".perfbench-out"


def machine_record() -> dict:
    """CPU model and count, interpreter and numpy versions."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "affinity": len(os.sched_getaffinity(0)),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def spawn(args: list[str], timeout_s: float) -> dict | None:
    """Run ``perfbench.rep`` in a fresh process; its report, or None."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)  # no world spill outside the checkout
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.rep", *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {args} timed out after {timeout_s:.0f}s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {args} exited {proc.returncode}:\n{err[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool
            ) -> tuple[dict | None, list[dict], int]:
    """Untraced repetitions for ``seconds``, then traced ones if asked.

    With tracing, half the time goes to the untraced repetitions that
    the traced ones are compared against. Returns the untraced report,
    the traced reports, and how many traced repetitions raised.
    """
    common = ["--workload", workload, "--seed", str(seed)]
    untraced = spawn(
        common + ["--seconds", str(seconds / 2 if trace else seconds)],
        UNTRACED_TIMEOUT_S)
    traced: list[dict] = []
    crashed = 0
    for i in range(TRACED_REPS if trace and untraced else 0):
        spans = OUT_DIR / f"{workload}-seed{seed}-spans{i}.npz"
        report = spawn(common + ["--traced", "--spans-out", str(spans)],
                       TRACED_TIMEOUT_S)
        if report is None:
            crashed += 1
        else:
            traced.append(report)
    return untraced, traced, crashed


def gate(workload: str, seed: int, untraced: list[dict], errors: int,
         traced: list[dict], crashed: int) -> checks.Gate:
    result = checks.Gate()
    spec = WORKLOADS[workload]
    per_rep = checks.checks_per_rep(spec.headline_runs, seed == DEFAULT_SEED)
    if errors:
        result.fail(errors * per_rep, f"{errors} untraced repetition(s) raised")
    if crashed:
        result.fail(crashed * per_rep, f"{crashed} traced repetition(s) raised")
    for i, report in enumerate(untraced):
        checks.check_rep(result, report, f"untraced rep {i}")
    for i, report in enumerate(traced):
        checks.check_rep(result, report, f"traced rep {i}")
    if untraced:
        checks.check_repeats(result, untraced, traced)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run, traced, crashed = collect(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    iterations = run["iterations"] if run else []
    untraced = [it for it in iterations if "error" not in it]
    if not untraced or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    result = gate(args.workload, args.seed, untraced,
                  len(iterations) - len(untraced), traced, crashed)
    if args.trace:
        values = metrics.per_layer(untraced, traced, result.error_rate)
    else:
        values = metrics.end_to_end(untraced, run["peak_rss_mb"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(), "metrics": values,
        "problems": result.problems,
        "untraced": run, "traced": traced,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced, {len(traced)} traced repetitions, "
          f"{len(iterations) - len(untraced) + crashed} raised")
    print("machine " + json.dumps(record["machine"]))
    for raw in ("wall_s", "cpu_s"):
        times = sorted(r[raw] for r in untraced)
        print(f"{raw} over {len(times)} untraced repetitions: median "
              f"{statistics.median(times):.4f} min {times[0]:.4f} "
              f"max {times[-1]:.4f}")
    for name, value in values.items():
        print(f"  {name:34s} {value:>16.6g} {metrics.UNITS[name]}")
    for problem in result.problems:
        print(f"FAILED CHECK {problem}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
