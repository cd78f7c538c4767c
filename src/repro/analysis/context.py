"""Per-file analysis context shared by every rule.

One :class:`FileContext` is built per analyzed file. It owns the parsed
AST plus three derived artifacts every rule needs:

* an **import map** so calls can be resolved to canonical dotted names
  (``np.random.default_rng`` and ``numpy.random.default_rng`` both
  resolve to ``numpy.random.default_rng``);
* **suppression comments** (``# repro-lint: disable=RPR001`` on the
  offending line, or ``# repro-lint: disable-file=RPR003`` anywhere at
  column zero for a whole-file waiver);
* a line → **enclosing scope** map (``Class.method`` qualnames) used by
  baseline fingerprints.
"""

from __future__ import annotations

import ast
import re
from functools import cached_property

#: Community-standard aliases applied when no explicit import rebinds
#: the name (``np`` is numpy everywhere in this codebase).
_CONVENTIONAL_ALIASES = {"np": "numpy", "npt": "numpy.typing"}

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*"
    r"(all|RPR\d{3}(?:\s*,\s*RPR\d{3})*)")


def _parse_rule_list(spec: str) -> frozenset[str]:
    if spec.strip() == "all":
        return frozenset({"all"})
    return frozenset(part.strip() for part in spec.split(","))


class FileContext:
    """Parsed source + derived lookup tables for one analyzed file."""

    def __init__(self, source: str, path: str) -> None:
        self.source = source
        self.path = path.replace("\\", "/")
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()

    # -- module identity ------------------------------------------------

    @cached_property
    def module_parts(self) -> tuple[str, ...]:
        """Dotted-module path parts, rooted at ``repro`` when present.

        ``src/repro/sim/rng.py`` → ``("repro", "sim", "rng")``;
        ``tests/test_cli.py`` → ``("tests", "test_cli")``.
        """
        parts = [p for p in self.path.split("/") if p not in ("", ".", "..")]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts and parts[-1] == "__init__":
            parts.pop()
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        elif "src" in parts:
            parts = parts[parts.index("src") + 1:]
        return tuple(parts)

    @property
    def module(self) -> str:
        return ".".join(self.module_parts)

    @property
    def is_test(self) -> bool:
        parts = self.path.split("/")
        name = parts[-1] if parts else ""
        return ("tests" in parts or name.startswith("test_")
                or name == "conftest.py")

    # -- import resolution ----------------------------------------------

    @cached_property
    def import_map(self) -> dict[str, str]:
        """Local binding name → canonical dotted prefix.

        ``import numpy as np`` → ``{"np": "numpy"}``;
        ``from datetime import datetime`` →
        ``{"datetime": "datetime.datetime"}``.
        """
        mapping: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mapping[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        mapping[root] = root
            elif isinstance(node, ast.ImportFrom):
                prefix = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    local = alias.asname or alias.name
                    mapping[local] = (f"{prefix}.{alias.name}"
                                      if prefix else alias.name)
        return mapping

    def dotted_name(self, node: ast.expr) -> str | None:
        """Resolve a ``Name``/``Attribute`` chain to a canonical dotted name.

        Returns ``None`` for anything that is not a plain chain (calls,
        subscripts, …). The chain root is rewritten through
        :attr:`import_map`, so per-file aliases are normalized away.
        """
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.append(cur.id)
        parts.reverse()
        root = self.import_map.get(parts[0])
        if root is None:
            # Conventional aliases resolve even without the import in
            # scope — an un-imported ``np.random.default_rng()`` is a
            # NameError at runtime but still a hazard worth naming.
            root = _CONVENTIONAL_ALIASES.get(parts[0])
        if root is not None:
            parts[0:1] = root.split(".")
        return ".".join(parts)

    # -- suppression comments -------------------------------------------

    @cached_property
    def suppressions(self) -> tuple[dict[int, frozenset[str]],
                                    frozenset[str]]:
        """``(per-line rules, file-wide rules)`` suppression tables."""
        per_line: dict[int, frozenset[str]] = {}
        file_wide: set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = _parse_rule_list(match.group(2))
            if match.group(1) == "disable-file":
                file_wide |= rules
            else:
                per_line[lineno] = per_line.get(lineno, frozenset()) | rules
        return per_line, frozenset(file_wide)

    @cached_property
    def stmt_spans(self) -> list[tuple[int, int]]:
        """Line spans over which a suppression comment extends.

        A ``# repro-lint: disable=...`` anywhere on a multi-line
        statement must suppress findings attributed to any line of that
        statement — a call argument on line N+3 of a wrapped call, or a
        decorated ``def`` whose finding points at the ``def`` line while
        the comment sits on the closing-paren line. Simple statements
        span ``lineno..end_lineno``; compound statements (defs, classes,
        ``if``/``for``/``with``/``try``) contribute their *header* only
        (decorators through the line before the first body statement) so
        a waiver inside a function body never blankets the whole body.
        """
        spans: list[tuple[int, int]] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(
                    body[0], ast.stmt):
                start = node.lineno
                decorators = getattr(node, "decorator_list", [])
                if decorators:
                    start = min(start, decorators[0].lineno)
                end = max(start, body[0].lineno - 1)
            else:
                start = node.lineno
                end = node.end_lineno or node.lineno
            if end > start:
                spans.append((start, end))
        return spans

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is waived on ``line`` (or file-wide).

        A waiver counts when it sits on ``line`` itself, anywhere on a
        multi-line statement containing ``line`` (see
        :attr:`stmt_spans`), or file-wide.
        """
        per_line, file_wide = self.suppressions
        if "all" in file_wide or rule in file_wide:
            return True

        def _on(lineno: int) -> bool:
            here = per_line.get(lineno, frozenset())
            return "all" in here or rule in here

        if _on(line):
            return True
        return any(_on(covered)
                   for start, end in self.stmt_spans if start <= line <= end
                   for covered in range(start, end + 1))
