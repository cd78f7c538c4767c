"""``repro-lint`` command-line interface.

::

    repro-lint                          # lint src/ and tests/
    repro-lint src/repro/sim a.py       # lint a subtree and a file
    repro-lint --check-manifest         # fail on stream-manifest drift
    repro-lint --write-manifest         # regenerate analysis/streams.json

Findings print as ``path:line:col: RULE message``, then one summary
line. Exit codes: 0 clean, 1 findings (or manifest drift / parse
errors), 2 usage error (including a path that does not exist and a
named file that is not a ``.py`` file).

(Equivalently: ``python -m repro.analysis ...``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import run_analysis
from .manifest import check_manifest, write_manifest
from .session import AnalysisReport

MANIFEST = Path("analysis/streams.json")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism, unit-discipline, and shard-"
                    "purity analyzer for the ad-prefetch reproduction")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint "
                             "(default: src tests)")
    parser.add_argument("--check-manifest", action="store_true",
                        help=f"fail when the committed stream manifest "
                             f"({MANIFEST}) drifted from the code")
    parser.add_argument("--write-manifest", action="store_true",
                        help=f"regenerate {MANIFEST} and exit 0")
    return parser


def _default_paths() -> list[str]:
    paths = [p for p in ("src", "tests") if Path(p).exists()]
    return paths or ["."]


def render_text(report: AnalysisReport,
                manifest_problems: list[str]) -> str:
    """One line per finding, manifest problem and parse error, then a
    summary line."""
    lines = [finding.render() for finding in report.findings]
    lines.extend(f"manifest: {problem}" for problem in manifest_problems)
    lines.extend(f"error: {error}" for error in report.parse_errors)
    lines.append(
        f"repro-lint: {len(report.findings)} finding(s), "
        f"{report.suppressed} suppressed, "
        f"{report.files_analyzed} file(s) analyzed")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    paths = args.paths or _default_paths()
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"repro-lint: path(s) not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    not_python = [p for p in paths
                  if Path(p).is_file() and Path(p).suffix != ".py"]
    if not_python:
        print(f"repro-lint: not a .py file: {', '.join(not_python)}",
              file=sys.stderr)
        return 2
    report = run_analysis(paths)

    if args.write_manifest:
        write_manifest(report.stream_sites, MANIFEST)
        print(f"wrote {len({s.template for s in report.stream_sites})} "
              f"stream name(s) to {MANIFEST}")
        return 0

    manifest_problems = (check_manifest(report.stream_sites, MANIFEST)
                         if args.check_manifest else [])
    print(render_text(report, manifest_problems))
    failed = report.findings or report.parse_errors or manifest_problems
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
