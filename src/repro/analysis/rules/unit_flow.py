"""RPR008 — interprocedural unit flow (taint-style suffix propagation).

RPR003 checks unit suffixes *within one expression*. This rule follows
the value across the places RPR003 cannot see:

* **calls** — a positional argument named ``latency_s`` flowing into a
  parameter named ``timeout_ms`` of a function defined in another file;
* **assignments** — ``budget_ms = elapsed_s`` (plain rebinding carries
  no conversion), including ``x_ms = f(...)`` where ``f`` is a
  unit-promising function (``…_s``) or a function whose ``return``
  statements all carry one inferable unit suffix;
* **returns** — a function named ``…_ms`` returning a ``…_s``-suffixed
  value.

Only *unique* call-graph resolutions are checked (a direct import edge
or an unambiguous method), so the rule inherits the precision of the
module graph instead of the recall of the CHA fallback — a unit finding
should never require the reader to second-guess which callee was meant.
Keyword arguments are RPR003's jurisdiction (the keyword name *is* the
parameter name) and are skipped here.
"""

from __future__ import annotations

from typing import Iterator

from ..callgraph import ProjectContext, resolve_call
from ..findings import Finding
from ..modgraph import FunctionInfo, ModuleSummary, UnitRef
from .units import unit_of


def _mismatch(a: UnitRef, b: UnitRef) -> str | None:
    """Human-readable unit conflict between two refs, or ``None``."""
    if a.dim != b.dim:
        return f"mixes dimensions {a.dim} (_{a.suffix}) and {b.dim} (_{b.suffix})"
    if a.scale != b.scale:
        return (f"mixes {a.dim} scales _{a.suffix} and _{b.suffix} "
                "without an explicit conversion")
    return None


def _name_unit(name: str) -> UnitRef | None:
    """Unit promised by a bare identifier, as a :class:`UnitRef`."""
    unit = unit_of(name)
    if unit is None:
        return None
    return UnitRef(name, *unit)


def _return_unit(info: FunctionInfo) -> UnitRef | None:
    """The unit a function's returns consistently carry, if inferable.

    The function's own name suffix wins when present; otherwise all
    unit-carrying ``return`` statements must agree on one suffix.
    """
    promised = _name_unit(info.qualname.rsplit(".", 1)[-1])
    if promised is not None:
        return promised
    units = [ret.unit for ret in info.returns if ret.unit is not None]
    if not units or any(u.suffix != units[0].suffix for u in units):
        return None
    first = units[0]
    return UnitRef(display=f"{info.qualname}()", suffix=first.suffix,
                   dim=first.dim, scale=first.scale)


class UnitFlowRule:
    """RPR008: unit suffixes must survive assignments, returns, calls."""

    id = "RPR008"
    title = "interprocedural unit flow"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Findings over every analyzed function (tests included)."""
        for fq in sorted(project.graph.functions):
            summary, info = project.graph.functions[fq]
            yield from self._check_calls(project, summary, info)
            yield from self._check_assigns(project, summary, info)
            yield from self._check_returns(summary, info)

    # -- calls ----------------------------------------------------------

    def _check_calls(self, project: ProjectContext,
                     summary: ModuleSummary, info: FunctionInfo
                     ) -> Iterator[Finding]:
        for site in info.calls:
            candidates = resolve_call(project.graph, summary, info, site)
            if len(candidates) != 1:
                continue
            callee = project.graph.function(candidates[0])
            if callee is None:
                continue
            params = list(callee.params)
            # Instance/class receiver is not an argument slot.
            if callee.is_method and params and params[0] in ("self", "cls"):
                params = params[1:]
            for arg in site.args:
                if arg.position is None or arg.unit is None:
                    continue  # keywords are RPR003's jurisdiction
                if arg.position >= len(params):
                    continue
                param_unit = _name_unit(params[arg.position])
                if param_unit is None:
                    continue
                problem = _mismatch(arg.unit, param_unit)
                if problem is not None:
                    short = candidates[0].split(".", 1)[-1]
                    yield self._finding(
                        summary, arg.line, arg.col,
                        f"argument '{arg.unit.display}' flows into "
                        f"parameter '{params[arg.position]}' of "
                        f"{short}(): {problem}")

    # -- assignments ----------------------------------------------------

    def _check_assigns(self, project: ProjectContext,
                       summary: ModuleSummary, info: FunctionInfo
                       ) -> Iterator[Finding]:
        for assign in info.assigns:
            value_unit = assign.value_unit
            source = value_unit.display if value_unit else ""
            if value_unit is None and assign.value_call is not None:
                value_unit = self._callee_unit(project, summary, info,
                                               assign.value_call)
                source = f"{assign.value_call}()"
            if value_unit is None:
                continue
            problem = _mismatch(value_unit, assign.target_unit)
            if problem is not None:
                yield self._finding(
                    summary, assign.line, assign.col,
                    f"'{assign.target}' is assigned from '{source}': "
                    f"{problem}")

    def _callee_unit(self, project: ProjectContext,
                     summary: ModuleSummary, info: FunctionInfo,
                     callee: str) -> UnitRef | None:
        for candidate in (f"{summary.module}.{callee}", callee):
            resolved = project.graph.resolve(candidate)
            if resolved is not None and resolved in project.graph.functions:
                return _return_unit(project.graph.functions[resolved][1])
        return None

    # -- returns --------------------------------------------------------

    def _check_returns(self, summary: ModuleSummary,
                       info: FunctionInfo) -> Iterator[Finding]:
        promised = _name_unit(info.qualname.rsplit(".", 1)[-1])
        if promised is None:
            return
        for ret in info.returns:
            if ret.unit is None:
                continue
            problem = _mismatch(ret.unit, promised)
            if problem is not None:
                yield self._finding(
                    summary, ret.line, ret.col,
                    f"'{info.qualname}' promises _{promised.suffix} but "
                    f"returns '{ret.unit.display}': {problem}")

    def _finding(self, summary: ModuleSummary, line: int, col: int,
                 message: str) -> Finding:
        return Finding(rule=self.id, message=message, path=summary.path,
                       line=line, col=col)
