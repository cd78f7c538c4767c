"""Shared vocabulary for the RPR rule families.

Canonical names here are post-resolution (see
:meth:`repro.analysis.context.FileContext.dotted_name`), so ``np.random
.seed`` and ``numpy.random.seed`` are the same entry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext
from ..findings import Finding

#: Calls that read the wall clock (or other ambient entropy). Banned in
#: deterministic code; elapsed-time reporting must use the allowlist.
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
})

#: Monotonic/process clocks: explicitly fine for elapsed-time reporting
#: (they never leak into simulated quantities the way calendar time can).
ALLOWED_CLOCK_CALLS = frozenset({
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
})

#: numpy legacy global-state functions (``np.random.<fn>`` drawing from
#: the hidden module-level RandomState).
NUMPY_GLOBAL_FUNCS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "poisson", "exponential", "binomial",
    "beta", "gamma", "geometric", "pareto", "bytes", "get_state",
    "set_state",
})

#: RNG constructors: only ``repro.sim.rng`` may build generator objects;
#: everything else must thread a Generator or go through RngRegistry.
RNG_CONSTRUCTOR_CALLS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.SeedSequence",
    "random.Random",
    "random.SystemRandom",
})

#: The one module allowed to construct numpy bit generators.
RNG_HOME_MODULE = "repro.sim.rng"

#: Builtin consumers whose result depends on iteration order: feeding
#: them a ``set`` makes output depend on PYTHONHASHSEED across processes.
ORDER_SENSITIVE_CONSUMERS = frozenset({
    "sum", "list", "tuple", "enumerate", "reduce", "functools.reduce",
    "fsum", "math.fsum",
})


def is_set_expr(node: ast.expr) -> bool:
    """True for expressions that are syntactically a ``set``.

    Covers set displays, set comprehensions, ``set(...)`` /
    ``frozenset(...)`` calls, and binary set algebra over either.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return is_set_expr(node.left) or is_set_expr(node.right)
    return False


def iter_calls(ctx: FileContext) -> Iterator[tuple[ast.Call, str]]:
    """Yield ``(call_node, resolved_dotted_name)`` for resolvable calls."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = ctx.dotted_name(node.func)
            if name is not None:
                yield node, name


def make_finding(rule: str, ctx: FileContext, node: ast.AST,
                 message: str) -> Finding:
    """Build a :class:`Finding` located at ``node`` in ``ctx``."""
    return Finding(
        rule=rule,
        message=message,
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
    )


class Rule:
    """Base class: one rule family, one ``check`` pass over a file."""

    id: str = ""
    title: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError
