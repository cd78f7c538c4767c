"""Finding model for :mod:`repro.analysis` (``repro-lint``).

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str           # "RPR001" .. "RPR008"
    message: str        # human-readable explanation (stable wording)
    path: str           # posix-style path as given to the linter
    line: int           # 1-based
    col: int            # 0-based (ast convention)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
