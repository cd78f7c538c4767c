"""The correctness gate behind ``correct``, ``attempted`` and ``failed``.

Checks never abort a run: each one is counted, and a failure is kept
with a one-line reason. Per repetition: the accounting identities of
every headline run, and (at the default seed) the committed reference
under the program's equivalence contract. Across repetitions of the
same code and seed: results and program counters repeat exactly, the
traced result equals the untraced one, and span call counts repeat.
"""

from __future__ import annotations


class Gate:
    """Counts checks attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def fail(self, n: int, what: str) -> None:
        """Count ``n`` checks that could not run as failed."""
        self.attempted += n
        self.failed += n
        self.problems.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def checks_per_rep(headline_runs: int, with_reference: bool) -> int:
    """Checks one repetition contributes: identities, reference, repeats."""
    return 4 * headline_runs + int(with_reference) + 2


def check_rep(gate: Gate, report: dict, label: str) -> None:
    """Identities and reference for one repetition's report."""
    for what, lhs, rhs in report["identities"]:
        gate.check(lhs == rhs, f"{label}: {what}: {lhs} != {rhs}")
    violations = report["reference_violations"]
    if violations is not None:
        gate.check(not violations,
                   f"{label}: reference mismatch: {'; '.join(violations)}")


def call_counts(report: dict) -> dict[str, int]:
    return {name: totals["calls"] for name, totals in report["layers"].items()}


def check_repeats(gate: Gate, untraced: list[dict], traced: list[dict]) -> None:
    """Same code and seed: every repetition must agree bit for bit."""
    base = untraced[0]
    for i, report in enumerate(untraced[1:], start=1):
        gate.check(report["result"] == base["result"],
                   f"untraced rep {i}: result differs from rep 0")
        gate.check(report["counters"] == base["counters"],
                   f"untraced rep {i}: counters differ from rep 0")
    for i, report in enumerate(traced):
        gate.check(report["result"] == base["result"],
                   f"traced rep {i}: result differs from untraced")
        gate.check(report["counters"] == base["counters"],
                   f"traced rep {i}: counters differ from untraced")
    for i, report in enumerate(traced[1:], start=1):
        gate.check(call_counts(report) == call_counts(traced[0]),
                   f"traced rep {i}: span call counts differ from rep 0")
