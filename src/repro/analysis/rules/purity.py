"""RPR006 — shard purity over the `execute_shard` reachability closure.

The ROADMAP's distributed coordinator/worker runner retries a dropped
worker by *re-executing the shard as a pure function*. That is only
sound if nothing reachable from the shard entry points
(:data:`~repro.analysis.callgraph.SHARD_ENTRY_POINTS`) mutates state
that outlives the call or leaks across process boundaries. This rule
walks the conservative call graph and flags, inside reachable code:

* writes to module globals (``global X`` + assignment) and mutation of
  module-level mutable bindings (``CACHE[k] = v``, ``REGISTRY.append``);
* writes to ``os.environ`` (or ``os.putenv``/``os.chdir``/…): process
  environment escapes the shard;
* class-level attribute writes (``cls.x = …``, ``SomeClass.x = …``) and
  mutable class-body defaults on shard-constructed classes — state
  shared by every instance in the worker process;
* ``open()`` outside a ``with`` block and process/thread spawns
  (``subprocess``, ``threading.Thread``, executors): handles and
  process state a re-executed shard cannot reproduce.

Findings carry a ``reachable via`` chain so the reviewer can see *why*
the analyzer believes the code runs inside a shard. Intentional ambient
state (e.g. the process-local observability context) is waived inline
with a justification, exactly like every other rule family.
"""

from __future__ import annotations

from typing import Iterator

from ..callgraph import ProjectContext
from ..findings import Finding
from ..modgraph import ModuleSummary, PurityOp

#: Message templates per purity-op kind.
_MESSAGES = {
    "global-write": ("writes module global '{detail}'; shard re-execution "
                     "must be a pure function of the job — thread the "
                     "state through the job or its result"),
    "environ-write": ("writes the process environment ({detail}); "
                      "os.environ outlives the shard and leaks between "
                      "shard re-executions"),
    "module-mutate": ("mutates module-level container '{detail}'; shared "
                      "module state breaks shard re-execution and "
                      "differs between worker processes"),
    "class-attr-write": ("writes class-level attribute {detail}; class "
                         "state is shared by every instance in the "
                         "worker process"),
    "open-handle": ("calls {detail} outside a with block in shard-"
                    "reachable code; an open handle held across the "
                    "shard boundary cannot be shipped or re-executed"),
    "process-state": ("creates process/thread state ({detail}) in shard-"
                      "reachable code; shards must stay single-process "
                      "pure functions"),
}


class PurityRule:
    """RPR006: code reachable from ``execute_shard`` must be shard-pure."""

    id = "RPR006"
    title = "shard purity"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Findings over all shard-reachable functions and classes."""
        for summary, info in project.iter_reachable():
            fq = f"{summary.module}.{info.qualname}"
            for op in info.purity:
                finding = self._finding_for(project, summary, fq, op)
                if finding is not None:
                    yield finding
        yield from self._check_constructed_classes(project)

    def _finding_for(self, project: ProjectContext, summary: ModuleSummary,
                     fq: str, op: PurityOp) -> Finding | None:
        kind = op.kind
        detail = op.detail
        if kind == "attr-write":
            # Only a write whose target root resolves to a *class* or a
            # *module* is shared state; instance-attribute writes on
            # runtime objects are the normal case and stay silent.
            owner = detail.rsplit(".", 1)[0] if "." in detail else detail
            resolved = project.graph.resolve(owner)
            if resolved is None:
                return None
            if resolved in project.graph.classes:
                kind = "class-attr-write"
            elif resolved in project.graph.modules:
                kind = "module-mutate"
            else:
                return None
        template = _MESSAGES.get(kind)
        if template is None:
            return None
        chain = project.callgraph.chain(fq, project.parents)
        return Finding(
            rule=self.id,
            message=(template.format(detail=detail)
                     + f" [shard-reachable via {chain}]"),
            path=summary.path, line=op.line, col=op.col)

    def _check_constructed_classes(self, project: ProjectContext
                                   ) -> Iterator[Finding]:
        """Mutable class-body defaults on classes with reachable methods."""
        for class_fq in sorted(project.graph.classes):
            summary, cls = project.graph.classes[class_fq]
            if summary.is_test:
                continue
            touched = any(f"{class_fq}.{m}" in project.reachable
                          for m in cls.methods)
            if not touched:
                continue
            for decl in cls.fields:
                if decl.mutable_class_default:
                    yield Finding(
                        rule=self.id,
                        message=(f"class '{cls.qualname}' declares mutable "
                                 f"class-level default '{decl.name}'; every "
                                 "instance in a shard worker shares it — "
                                 "initialize per-instance in __init__ or "
                                 "use a dataclass field factory"),
                        path=summary.path, line=decl.line, col=decl.col)

