"""``repro-lint``: AST-based determinism & unit-discipline analyzer.

The :class:`repro.runner.Runner`'s bit-for-bit parallelism invariance
rests on conventions — named RNG streams, no ambient entropy in sim
code, associative metric merges, unit-suffixed quantities — that tests
only catch probabilistically. This package enforces them statically:

========  =====================================================
RPR001    determinism hazards (global RNGs, wall clock, bare-set
          iteration order)
RPR002    RNG stream discipline (centralized construction,
          statically-resolvable stream names + manifest)
RPR003    unit discipline (suffix-encoded dimension checking)
RPR004    merge associativity (accumulator contract in metrics)
RPR005    nondeterministic numpy entry points (global state,
          unseeded generators)
RPR006    shard purity over the ``execute_shard`` call graph
          (interprocedural)
RPR008    unit flow across assignments, returns and calls
          (interprocedural)
========  =====================================================

The id RPR007 is unused: whether the shard-boundary payload types
pickle is checked at run time, by ``tests/test_shard_boundary_pickle.py``.
Run as ``repro-lint`` or ``python -m repro.analysis``; see
:mod:`repro.analysis.cli` for flags, DESIGN.md for the contract.
The package is stdlib-only so it can run where numpy is absent.
"""

from __future__ import annotations

from .engine import AnalysisReport, analyze_source, run_analysis
from .findings import Finding
from .rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "analyze_source",
    "get_rules",
    "run_analysis",
]
