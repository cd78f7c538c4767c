"""Project-wide analysis session: one serial, deterministic pass.

One :class:`AnalysisSession` is one ``repro-lint`` run. It drives three
stages:

1. **Per-file** — parse each file, run the per-file rules (RPR001–005),
   and extract the :class:`~repro.analysis.modgraph.ModuleSummary` the
   interprocedural passes need. Files are visited in sorted path order,
   one after another.
2. **Project** — merge the summaries into a
   :class:`~repro.analysis.modgraph.ModuleGraph`, build the shard call
   graph, and run the project-level rules (RPR006–008) once over the
   whole program.
3. **Merge** — filter every finding through its file's
   :meth:`~repro.analysis.context.FileContext.is_suppressed`, sort
   everything by location, and hand back one :class:`AnalysisReport`.

The report is a pure function of the ``(path, source)`` pairs and the
rule selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .callgraph import SHARD_ENTRY_POINTS, ProjectContext
from .context import FileContext
from .findings import Finding
from .modgraph import ModuleGraph, ModuleSummary, build_summary
from .rules import get_project_rules, get_rules
from .rules.rng_streams import iter_stream_calls


@dataclass(slots=True)
class StreamSite:
    """One statically-resolved RNG stream name and where it is requested."""

    template: str
    path: str
    line: int


@dataclass(slots=True)
class AnalysisReport:
    """Outcome of one analysis run over a set of files."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_analyzed: int = 0
    parse_errors: list[str] = field(default_factory=list)
    stream_sites: list[StreamSite] = field(default_factory=list)


class AnalysisSession:
    """One lint run's rule selection and shard entry points."""

    def __init__(self, *, select: list[str] | None = None,
                 entry_points: Iterable[str] = SHARD_ENTRY_POINTS) -> None:
        self.rules = get_rules(select)
        self.project_rules = get_project_rules(select)
        self.entry_points = tuple(entry_points)

    def run_project(self, summaries: list[ModuleSummary]) -> list[Finding]:
        """Project-level rules over the merged module graph."""
        if not self.project_rules:
            return []
        graph = ModuleGraph.from_summaries(summaries)
        project = ProjectContext.build(graph, self.entry_points)
        findings: list[Finding] = []
        for rule in self.project_rules:
            findings.extend(rule.check_project(project))
        return findings

    def run(self, sources: Iterable[tuple[str, str]]) -> AnalysisReport:
        """All three stages over ``(path, source)`` pairs.

        Unparsable sources become ``parse_errors``; findings (per-file
        and project) are suppression-filtered and sorted by location.
        """
        report = AnalysisReport()
        contexts: dict[str, FileContext] = {}
        summaries: list[ModuleSummary] = []
        findings: list[Finding] = []
        for path, source in sorted(sources, key=lambda pair: pair[0]):
            try:
                ctx = FileContext(source, path)
            except SyntaxError as exc:
                report.parse_errors.append(f"{path}: {exc}")
                continue
            contexts[ctx.path] = ctx
            for rule in self.rules:
                findings.extend(rule.check(ctx))
            summaries.append(build_summary(ctx))
            # Stream-manifest collection covers shipped code only; test
            # streams are not part of the reproducibility surface.
            if not ctx.is_test:
                report.stream_sites.extend(
                    StreamSite(template=template, path=ctx.path,
                               line=node.lineno)
                    for node, template in iter_stream_calls(ctx)
                    if template is not None)
        report.files_analyzed = len(summaries)
        findings.extend(self.run_project(summaries))

        for finding in findings:
            ctx = contexts.get(finding.path)
            if ctx is not None and ctx.is_suppressed(finding.rule,
                                                     finding.line):
                report.suppressed += 1
            else:
                report.findings.append(finding)
        report.findings.sort(
            key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
        report.stream_sites.sort(key=lambda s: (s.template, s.path, s.line))
        return report


def analyze_project_sources(sources: Mapping[str, str],
                            select: list[str] | None = None,
                            entry_points: Iterable[str] | None = None
                            ) -> list[Finding]:
    """Run the full session over in-memory sources (the test entry point).

    ``sources`` maps path → source text; module names derive from the
    paths exactly as on disk, so a fixture can impersonate
    ``src/repro/experiments/harness.py`` to exercise the shard entry
    points. Suppression comments are honored. Returns all (per-file +
    project) findings sorted by location. Raises ``SyntaxError`` for
    unparsable input.
    """
    session = AnalysisSession(
        select=select,
        entry_points=tuple(entry_points) if entry_points is not None
        else SHARD_ENTRY_POINTS)
    report = session.run(sources.items())
    if report.parse_errors:
        raise SyntaxError(report.parse_errors[0])
    return report.findings
