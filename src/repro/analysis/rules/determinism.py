"""RPR001 — determinism hazards.

Flags ambient-nondeterminism sources anywhere in the tree:

* calls through the stdlib ``random`` module's hidden global state;
* wall-clock/entropy reads (``time.time``, ``datetime.now``,
  ``os.urandom``, ``uuid.uuid4``); elapsed-time reporting must use the
  monotonic allowlist (``time.perf_counter`` and friends);
* iteration over bare ``set`` expressions in order-sensitive positions
  (``for`` targets, comprehensions, ``sum``/``list``/``reduce``
  arguments) without a ``sorted(...)`` wrapper — set order depends on
  PYTHONHASHSEED, so it differs between the Runner's worker processes.

Inside :mod:`repro.obs` the rule is stricter: **any** clock read —
including the monotonic allowlist — is flagged outside
``repro/obs/profile.py``, ``repro/obs/resources.py``, and
``repro/obs/live.py``. Observability code runs interleaved with the
simulation, so traces and metrics must be pure functions of simulated
time; only the profiling module (wall-clock phase timing), the
resource-telemetry module (CPU seconds, peak RSS), and the live
telemetry plane (heartbeat pacing and progress-line throttling —
beats are out-of-band and never enter results) measure real time, which
keeps the "where may real time leak in?" audit surface to those three
files.

Constructor-shaped RNG calls (``default_rng``, ``Generator``,
``random.Random``) are RPR002's jurisdiction and skipped here; numpy
legacy global-state draws (``np.random.rand`` & co.) and unseeded
constructors are RPR005's.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext
from ..findings import Finding
from .common import (
    ALLOWED_CLOCK_CALLS,
    ORDER_SENSITIVE_CONSUMERS,
    RNG_CONSTRUCTOR_CALLS,
    WALL_CLOCK_CALLS,
    Rule,
    is_set_expr,
    iter_calls,
    make_finding,
)


class DeterminismRule(Rule):
    id = "RPR001"
    title = "determinism hazards"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_calls(ctx)
        yield from self._check_set_iteration(ctx)

    # -- ambient state calls --------------------------------------------

    #: repro.obs modules allowed to read wall clocks (profile: phase
    #: timing; resources: CPU seconds / RSS telemetry; live: heartbeat
    #: pacing + render throttling — out-of-band, never entering results).
    OBS_CLOCK_MODULES = (("repro", "obs", "profile"),
                         ("repro", "obs", "resources"),
                         ("repro", "obs", "live"))

    def _check_calls(self, ctx: FileContext) -> Iterator[Finding]:
        obs_clock_free = (ctx.module_parts[:2] == ("repro", "obs")
                          and ctx.module_parts[:3] not in
                          self.OBS_CLOCK_MODULES)
        for node, name in iter_calls(ctx):
            if name in RNG_CONSTRUCTOR_CALLS:
                continue
            if name in ALLOWED_CLOCK_CALLS:
                if obs_clock_free:
                    yield make_finding(
                        self.id, ctx, node,
                        f"clock read {name}() inside repro.obs; wall-clock "
                        "measurement belongs in repro/obs/profile.py, "
                        "repro/obs/resources.py, or repro/obs/live.py — "
                        "traces and metrics must carry simulated time only")
                continue
            if name in WALL_CLOCK_CALLS:
                yield make_finding(
                    self.id, ctx, node,
                    f"wall-clock/entropy call {name}() in deterministic "
                    "code; use time.perf_counter() for elapsed timing or "
                    "thread simulated time explicitly")
            elif name.startswith("random."):
                yield make_finding(
                    self.id, ctx, node,
                    f"{name}() draws from the stdlib global RNG; thread an "
                    "explicit numpy Generator from RngRegistry instead")

    # -- unordered iteration --------------------------------------------

    def _set_iter_finding(self, ctx: FileContext, node: ast.AST,
                          where: str) -> Finding:
        return make_finding(
            self.id, ctx, node,
            f"iteration over a bare set {where} is PYTHONHASHSEED-"
            "dependent and breaks cross-process reproducibility; wrap "
            "the set in sorted(...)")

    def _check_set_iteration(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_expr(node.iter):
                    yield self._set_iter_finding(ctx, node.iter,
                                                 "in a for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    if is_set_expr(comp.iter):
                        yield self._set_iter_finding(ctx, comp.iter,
                                                     "in a comprehension")
            elif isinstance(node, ast.Call):
                name = ctx.dotted_name(node.func)
                if name in ORDER_SENSITIVE_CONSUMERS:
                    # reduce(fn, iterable, ...) takes its iterable second.
                    idx = 1 if name.endswith("reduce") else 0
                    if len(node.args) > idx and is_set_expr(node.args[idx]):
                        yield self._set_iter_finding(
                            ctx, node.args[idx], f"passed to {name}(...)")
