"""Rule registry for ``repro-lint``.

Rules register here by id; :func:`get_rules` materializes the (optionally
filtered) active per-file set for one engine run and
:func:`get_project_rules` the interprocedural set (RPR006 and RPR008),
which run once per session over the merged module graph rather than per
file.
"""

from __future__ import annotations

from .common import Rule
from .determinism import DeterminismRule
from .merges import MergeRule
from .numpy_entropy import NumpyEntropyRule
from .purity import PurityRule
from .rng_streams import RngStreamRule
from .unit_flow import UnitFlowRule
from .units import UnitRule

ALL_RULES: dict[str, type[Rule]] = {
    rule.id: rule
    for rule in (DeterminismRule, RngStreamRule, UnitRule, MergeRule,
                 NumpyEntropyRule)
}

#: Project-level (interprocedural) rules: run once over the module graph.
PROJECT_RULES: dict[str, type] = {
    rule.id: rule
    for rule in (PurityRule, UnitFlowRule)
}


def _validate(select: list[str]) -> None:
    known = set(ALL_RULES) | set(PROJECT_RULES)
    unknown = sorted(set(select) - known)
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(known))}")


def get_rules(select: list[str] | None = None) -> list[Rule]:
    """Instantiate the active per-file rules (all by default).

    ``select`` is a list of rule ids; unknown ids raise ``ValueError``
    so a caller fails loudly rather than silently checking nothing.
    Project-level ids (RPR006, RPR008) are accepted here for validation
    but materialize through :func:`get_project_rules`.
    """
    if select is None:
        ids = sorted(ALL_RULES)
    else:
        _validate(select)
        ids = sorted(set(select) & set(ALL_RULES))
    return [ALL_RULES[rule_id]() for rule_id in ids]


def get_project_rules(select: list[str] | None = None) -> list[object]:
    """Instantiate the active project-level rules (all by default)."""
    if select is None:
        ids = sorted(PROJECT_RULES)
    else:
        _validate(select)
        ids = sorted(set(select) & set(PROJECT_RULES))
    return [PROJECT_RULES[rule_id]() for rule_id in ids]


__all__ = ["ALL_RULES", "PROJECT_RULES", "Rule", "get_rules",
           "get_project_rules"]
