"""Analysis engine: file discovery and the on-disk entry point.

The engine is deliberately import-light (stdlib only) so ``repro-lint``
can run in environments where the simulator's dependencies are absent —
e.g. a pre-commit hook or a minimal CI container. Heavy lifting lives
in :mod:`repro.analysis.session` (the per-file stage, the
interprocedural project stage, and the suppression-filtering merge);
this module owns file discovery and :func:`run_analysis`, which feeds
the session from disk.
"""

from __future__ import annotations

import fnmatch
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .context import FileContext
from .findings import Finding
from .rules import Rule, get_rules
from .session import AnalysisReport, AnalysisSession

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv",
                        "node_modules", "build", "dist"})


class GitIgnore:
    """Best-effort ``.gitignore`` matcher for the file walker.

    Supports the pattern shapes this repository actually uses: bare
    names (``*.pyc``), directory patterns (``obs-runs/``), and anchored
    path globs (``benchmarks/results/*.json``). Negations and nested
    ignore files are out of scope — the walker only needs to keep
    scratch output out of the lint run, not re-implement git.
    """

    def __init__(self, patterns: Iterable[str]) -> None:
        self.dir_patterns: list[str] = []
        self.name_patterns: list[str] = []
        self.path_patterns: list[str] = []
        for raw in patterns:
            pattern = raw.strip()
            if not pattern or pattern.startswith("#") or pattern.startswith("!"):
                continue
            if pattern.endswith("/"):
                pattern = pattern.rstrip("/")
                if "/" in pattern:
                    self.path_patterns.append(pattern)
                else:
                    self.dir_patterns.append(pattern)
            elif "/" in pattern:
                self.path_patterns.append(pattern.lstrip("/"))
            else:
                self.name_patterns.append(pattern)

    @classmethod
    def load(cls, root: str | Path = ".") -> "GitIgnore":
        """Read ``<root>/.gitignore`` (missing file → empty matcher)."""
        path = Path(root) / ".gitignore"
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        return cls(lines)

    def ignores_dir(self, name: str, rel: str) -> bool:
        """True when a directory (basename + posix relpath) is ignored."""
        return (any(fnmatch.fnmatch(name, p) for p in self.dir_patterns)
                or self._path_match(rel))

    def ignores_file(self, name: str, rel: str) -> bool:
        """True when a file (basename + posix relpath) is ignored."""
        return (any(fnmatch.fnmatch(name, p) for p in self.name_patterns)
                or self._path_match(rel))

    def _path_match(self, rel: str) -> bool:
        return any(fnmatch.fnmatch(rel, p) for p in self.path_patterns)


def iter_python_files(paths: Sequence[str | Path],
                      gitignore: GitIgnore | None = None) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in deterministic sorted order.

    ``__pycache__``, virtualenvs, and (when ``gitignore`` is given or a
    ``.gitignore`` exists in the working directory) gitignored paths are
    skipped. Explicit file arguments always win — naming a file lints
    it even if a pattern would ignore it.
    """
    if gitignore is None:
        gitignore = GitIgnore.load(".")
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            base = Path(dirpath)
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in _SKIP_DIRS and not d.endswith(".egg-info")
                and not gitignore.ignores_dir(d, (base / d).as_posix()))
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                file_path = base / filename
                if gitignore.ignores_file(filename, file_path.as_posix()):
                    continue
                yield file_path


def analyze_source(source: str, path: str,
                   rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint one in-memory source blob (the unit-test entry point).

    Runs the per-file rules only — interprocedural rules need a project
    and live behind :func:`repro.analysis.session.analyze_project_sources`.
    Suppression comments are honored; findings are returned sorted by
    location. Raises ``SyntaxError`` for unparsable input.
    """
    ctx = FileContext(source, path)
    active = list(rules) if rules is not None else get_rules()
    findings = [
        finding
        for rule in active
        for finding in rule.check(ctx)
        if not ctx.is_suppressed(finding.rule, finding.line)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def run_analysis(paths: Sequence[str | Path],
                 select: list[str] | None = None) -> AnalysisReport:
    """Lint every python file under ``paths`` with the selected rules.

    Reads each file from disk and hands the ``(path, source)`` pairs to
    :meth:`AnalysisSession.run`; unreadable files join the parse errors.
    """
    sources: list[tuple[str, str]] = []
    unreadable: list[str] = []
    for file_path in iter_python_files(paths):
        rel = file_path.as_posix()
        try:
            sources.append((rel, file_path.read_text(encoding="utf-8")))
        except (UnicodeDecodeError, OSError) as exc:
            unreadable.append(f"{rel}: {exc}")
    report = AnalysisSession(select=select).run(sources)
    report.parse_errors = sorted(unreadable + report.parse_errors)
    return report
