"""RPR007 — serialization safety for shard-boundary payload types.

Everything that crosses the Runner's process boundary — the
:class:`~repro.experiments.harness.ShardJob` payload, the committed
ledger's :class:`~repro.obs.ledger.RunRecord`, the
:class:`~repro.faults.plan.FaultPlan`, the :mod:`repro.dist` messages
and the accumulator snapshots the shard fold merges — must be
statically picklable, because each crosses a worker's pipe pickled.
This rule walks the *type closure* of those contract
roots through the module graph and flags:

* a root that is not a dataclass, or missing its contract bits
  (``frozen`` for value types, ``kw_only``/``slots`` where the API
  requires them);
* a field anywhere in the closure whose annotation mentions a
  statically unpicklable type — ``Callable``, loggers, locks, open
  files/sockets, iterators/generators, queues;
* lambda defaults (``field(default_factory=lambda: …)``): lambdas do
  not pickle, so the first worker dispatch dies at runtime.

Unknown external types get the benefit of the doubt (numpy arrays and
generators-of-state pickle fine); only *provably* unshippable tokens
fail the gate, so the rule stays quiet on subset runs where parts of
the closure are not analyzed.
"""

from __future__ import annotations

from typing import Iterator

from ..callgraph import ProjectContext
from ..findings import Finding
from ..modgraph import ClassInfo, ModuleSummary

#: Contract roots: dotted name → required dataclass flags.
SERIALIZATION_ROOTS: dict[str, dict[str, bool]] = {
    "repro.experiments.harness.ShardJob": {"kw_only": True, "slots": True},
    "repro.obs.ledger.RunRecord": {"frozen": True},
    "repro.faults.plan.FaultPlan": {"frozen": True, "kw_only": True},
    "repro.obs.metrics.MetricsSnapshot": {},
    # The repro.dist wire contract: every control message that crosses
    # a coordinator/worker pipe, plus the chaos plan shipped beside
    # each job. All must stay flat scalar dataclasses that pickle
    # across the pipe.
    "repro.dist.protocol.WorkerReady": {"frozen": True, "kw_only": True},
    "repro.dist.protocol.JobEnvelope": {"frozen": True, "kw_only": True},
    "repro.dist.protocol.JobNack": {"frozen": True, "kw_only": True},
    "repro.dist.protocol.ResultEnvelope": {"frozen": True, "kw_only": True},
    "repro.obs.live.ShardBeat": {"frozen": True},
    "repro.faults.chaos.CoordinatorChaos": {"frozen": True,
                                            "kw_only": True},
}

#: Module whose every class is a shard-fold accumulator (implicit roots).
ACCUMULATOR_MODULE = "repro.metrics.accumulators"

#: Annotation tokens that are statically unpicklable / not JSON-safe.
BANNED_TYPE_TOKENS = frozenset({
    "typing.Callable", "collections.abc.Callable", "Callable",
    "logging.Logger",
    "threading.Lock", "threading.RLock", "threading.Event",
    "threading.Condition", "threading.Semaphore",
    "typing.IO", "typing.TextIO", "typing.BinaryIO",
    "io.IOBase", "io.TextIOWrapper", "io.BufferedReader",
    "io.BufferedWriter", "io.BytesIO", "io.StringIO",
    "typing.Iterator", "typing.Generator", "typing.AsyncIterator",
    "collections.abc.Iterator", "collections.abc.Generator",
    "socket.socket", "queue.Queue", "multiprocessing.Queue",
    "concurrent.futures.Executor",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
})


class SerializationRule:
    """RPR007: shard-boundary payload types must be statically shippable."""

    id = "RPR007"
    title = "serialization safety"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Findings over the type closure of every serialization root."""
        roots = dict(SERIALIZATION_ROOTS)
        accumulators = project.graph.modules.get(ACCUMULATOR_MODULE)
        if accumulators is not None:
            for qualname in accumulators.classes:
                roots.setdefault(f"{ACCUMULATOR_MODULE}.{qualname}", {})

        visited: set[str] = set()
        for root in sorted(roots):
            resolved = project.graph.resolve(root)
            if resolved is None or resolved not in project.graph.classes:
                continue  # subset run: root not analyzed, nothing to prove
            summary, cls = project.graph.classes[resolved]
            yield from self._check_contract(summary, cls, root,
                                            roots[root])
            yield from self._walk_closure(project, resolved, root, visited)

    def _check_contract(self, summary: ModuleSummary, cls: ClassInfo,
                        root: str, required: dict[str, bool]
                        ) -> Iterator[Finding]:
        short = root.rsplit(".", 1)[-1]
        if not cls.is_dataclass:
            yield Finding(
                rule=self.id,
                message=(f"serialization root '{short}' is not a "
                         "dataclass; the shard boundary contract "
                         "requires declarative, field-enumerable "
                         "payload types"),
                path=summary.path, line=cls.line, col=cls.col,
                scope=cls.qualname)
            return
        for flag, needed in sorted(required.items()):
            if needed and not getattr(cls, flag):
                yield Finding(
                    rule=self.id,
                    message=(f"serialization root '{short}' must be "
                             f"declared with {flag}=True; the "
                             "shard-boundary contract depends on it"),
                    path=summary.path, line=cls.line, col=cls.col,
                    scope=cls.qualname)

    def _walk_closure(self, project: ProjectContext, class_fq: str,
                      root: str, visited: set[str]) -> Iterator[Finding]:
        """BFS the field-type closure, yielding banned-token findings."""
        short_root = root.rsplit(".", 1)[-1]
        frontier: list[tuple[str, str]] = [(class_fq, short_root)]
        while frontier:
            current, via = frontier.pop(0)
            if current in visited:
                continue
            visited.add(current)
            entry = project.graph.classes.get(current)
            if entry is None:
                continue
            summary, cls = entry
            for decl in cls.fields:
                if decl.lambda_default:
                    yield Finding(
                        rule=self.id,
                        message=(f"field '{decl.name}' of '{cls.qualname}' "
                                 "defaults through a lambda; lambdas do "
                                 "not pickle across the shard boundary "
                                 f"[in the closure of {via}]"),
                        path=summary.path, line=decl.line, col=decl.col,
                        scope=cls.qualname)
                for token in decl.type_tokens:
                    if token in BANNED_TYPE_TOKENS or (
                            token.rsplit(".", 1)[-1] in ("Callable",)
                            and token.startswith("typing.")):
                        yield Finding(
                            rule=self.id,
                            message=(f"field '{decl.name}' of "
                                     f"'{cls.qualname}' is typed "
                                     f"'{token}', which cannot cross the "
                                     "shard boundary (not statically "
                                     "picklable/JSON-safe) [in the "
                                     f"closure of {via}]"),
                            path=summary.path, line=decl.line,
                            col=decl.col, scope=cls.qualname)
                        continue
                    resolved = project.graph.resolve(token)
                    if (resolved is not None
                            and resolved in project.graph.classes
                            and resolved not in visited):
                        frontier.append(
                            (resolved, f"{via}.{decl.name}"))
