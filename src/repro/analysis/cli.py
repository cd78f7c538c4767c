"""``repro-lint`` command-line interface.

::

    repro-lint                          # lint src/ and tests/
    repro-lint src/repro/sim            # lint a subtree
    repro-lint --paths a.py,b.py        # lint an explicit file subset
    repro-lint --format json            # machine-readable output
    repro-lint --format sarif           # SARIF 2.1.0 (CI code scanning)
    repro-lint --write-baseline         # grandfather current findings
    repro-lint baseline prune           # drop stale baseline entries
    repro-lint baseline prune --check   # fail if stale entries exist
    repro-lint --check-manifest         # fail on stream-manifest drift
    repro-lint --write-manifest         # regenerate analysis/streams.json
    repro-lint --select RPR001,RPR006   # subset of rule families

Exit codes: 0 clean, 1 findings (or manifest drift / parse errors /
stale baseline under ``prune --check``), 2 usage error.

(Equivalently: ``python -m repro.analysis ...``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import Baseline
from .engine import run_analysis
from .manifest import check_manifest, write_manifest
from .reporter import LintOutcome, render_json, render_text
from .sarif import render_sarif

DEFAULT_BASELINE = Path("analysis/repro-lint-baseline.json")
DEFAULT_MANIFEST = Path("analysis/streams.json")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism, unit-discipline, and shard-"
                    "purity analyzer for the ad-prefetch reproduction")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint "
                             "(default: src tests)")
    parser.add_argument("--paths", dest="path_subset", default=None,
                        metavar="FILES",
                        help="comma-separated explicit file subset to "
                             "lint (overrides positional paths)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids (default: all)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE} "
                             "when it exists)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline "
                             "file and exit 0")
    parser.add_argument("--manifest", type=Path, default=DEFAULT_MANIFEST,
                        help="stream-name manifest path")
    parser.add_argument("--check-manifest", action="store_true",
                        help="fail when the committed stream manifest "
                             "drifted from the code")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate the stream manifest and exit 0")
    return parser


def build_baseline_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro-lint baseline <action>`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-lint baseline",
        description="Maintain the grandfathered-findings baseline")
    parser.add_argument("action", choices=("prune",),
                        help="prune: drop entries no finding matches")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint "
                             "(default: src tests)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help=f"baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument("--check", action="store_true",
                        help="report stale entries and exit 1 without "
                             "rewriting the file (CI mode)")
    parser.add_argument("--select", default=None, metavar="RULES")
    return parser


def _default_paths() -> list[str]:
    paths = [p for p in ("src", "tests") if Path(p).exists()]
    return paths or ["."]


def _split_csv(spec: str | None) -> list[str] | None:
    if spec is None:
        return None
    return [part for part in spec.replace(" ", "").split(",") if part]


def baseline_main(argv: list[str]) -> int:
    """``repro-lint baseline prune [--check]`` entry point."""
    args = build_baseline_parser().parse_args(argv)
    try:
        baseline = Baseline.load(args.baseline)
    except (ValueError, OSError) as exc:
        print(f"repro-lint: cannot read baseline: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_analysis(args.paths or _default_paths(),
                              select=_split_csv(args.select))
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    _, _, stale = baseline.split(report.findings)
    if not stale:
        print(f"baseline {args.baseline}: no stale entries "
              f"({len(baseline.entries)} kept)")
        return 0
    if args.check:
        for fingerprint in stale:
            entry = baseline.entries[fingerprint]
            print(f"stale baseline entry {fingerprint}: "
                  f"{entry.get('rule')} {entry.get('path')}")
        print(f"baseline {args.baseline}: {len(stale)} stale entr"
              f"{'y' if len(stale) == 1 else 'ies'}; run "
              "'repro-lint baseline prune' to drop them")
        return 1
    for fingerprint in stale:
        del baseline.entries[fingerprint]
    baseline.save(args.baseline)
    print(f"pruned {len(stale)} stale entr"
          f"{'y' if len(stale) == 1 else 'ies'} from {args.baseline} "
          f"({len(baseline.entries)} kept)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "baseline":
        return baseline_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.path_subset is not None:
        paths = _split_csv(args.path_subset) or []
        missing = [p for p in paths if not Path(p).exists()]
        if missing:
            print(f"repro-lint: --paths entries not found: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 2
    else:
        paths = args.paths or _default_paths()
    try:
        report = run_analysis(paths, select=_split_csv(args.select))
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.write_manifest:
        write_manifest(report.stream_sites, args.manifest)
        print(f"wrote {len({s.template for s in report.stream_sites})} "
              f"stream name(s) to {args.manifest}")
        return 0

    baseline_path = args.baseline
    if baseline_path is None and DEFAULT_BASELINE.exists():
        baseline_path = DEFAULT_BASELINE

    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        Baseline.from_findings(report.findings).save(target)
        print(f"wrote {len(report.findings)} finding(s) to {target}")
        return 0

    outcome = LintOutcome(
        suppressed=report.suppressed,
        files_analyzed=report.files_analyzed,
        parse_errors=report.parse_errors,
    )
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"repro-lint: cannot read baseline: {exc}",
                  file=sys.stderr)
            return 2
        (outcome.new_findings, outcome.baselined,
         outcome.stale_baseline) = baseline.split(report.findings)
    else:
        outcome.new_findings = report.findings

    if args.check_manifest:
        outcome.manifest_problems = check_manifest(
            report.stream_sites, args.manifest)

    render = {"json": render_json, "sarif": render_sarif,
              "text": render_text}[args.format]
    print(render(outcome))
    return 1 if outcome.failed else 0


if __name__ == "__main__":
    sys.exit(main())
