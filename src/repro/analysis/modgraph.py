"""Module graph & per-file summaries for interprocedural analysis.

The per-file rules (RPR001–RPR005) see one :class:`~repro.analysis.
context.FileContext` at a time. The project-level rules (RPR006 shard
purity, RPR008 unit flow) need to see the whole program: which module
defines a symbol, which function calls which, which classes a shard
constructs, what unit a function *in another file* returns. This
module provides the data layer for that:

* :class:`ModuleSummary` — everything the interprocedural passes need
  from one file, extracted in a single AST walk;
* :class:`ModuleGraph` — the project-wide index: summaries by module
  name, symbol resolution across import aliases and ``__init__.py``
  re-exports, and fully-qualified function/class tables the call-graph
  pass (:mod:`repro.analysis.callgraph`) builds on.

Summaries are conservative extractions, not semantics: they record
*facts with locations* (``this function writes module global X at line
N``); deciding whether a fact is a finding is the rules' job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .context import FileContext
from .rules.units import unit_of

#: Mutating container-method names: calling one of these on a
#: module-level binding is shared-state mutation across shard runs.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "extendleft", "popleft",
})

#: Calls that write the process environment (never shard-safe).
_ENVIRON_WRITERS = frozenset({
    "os.putenv", "os.unsetenv", "os.chdir", "os.umask",
    "os.environ.update", "os.environ.setdefault", "os.environ.pop",
    "os.environ.clear",
})

#: Calls that create process/thread state a shard must not hold.
_PROCESS_STATE_CALLS = frozenset({
    "subprocess.Popen", "subprocess.run", "subprocess.call",
    "subprocess.check_output", "subprocess.check_call",
    "multiprocessing.Pool", "multiprocessing.Process",
    "threading.Thread", "threading.Timer",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "signal.signal", "atexit.register", "os.fork",
})

#: Module-level value expressions that create a *mutable* binding.
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "bytearray", "collections.defaultdict",
    "collections.deque", "collections.Counter", "collections.OrderedDict",
})


def _unit_ref(node: ast.expr) -> tuple[str, str, str, float] | None:
    """``(display, suffix, dim, scale)`` for a unit-suffixed Name/Attribute."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    unit = unit_of(name)
    if unit is None:
        return None
    return (name, *unit)


@dataclass(slots=True)
class UnitRef:
    """A unit-suffixed value observed in an expression position."""

    display: str
    suffix: str
    dim: str
    scale: float

    @classmethod
    def of(cls, node: ast.expr) -> "UnitRef | None":
        """Unit of a Name/Attribute expression, or ``None``."""
        ref = _unit_ref(node)
        if ref is None:
            return None
        return cls(*ref)


@dataclass(slots=True)
class CallArg:
    """One argument at a call site, with its unit when statically known."""

    position: int | None    # None for keyword arguments
    keyword: str | None
    line: int
    col: int
    unit: UnitRef | None
    is_name: bool = False   # value was a bare Name/Attribute


@dataclass(slots=True)
class CallSite:
    """One call made by a function: resolved callee + argument units.

    ``callee`` is the canonical dotted name when the chain root resolves
    through the file's imports (``repro.sim.rng.RngRegistry``), or the
    raw chain (``server.plan_epoch``) for attribute calls on runtime
    objects — the call-graph pass matches the latter by method name.
    """

    callee: str
    line: int
    col: int
    args: list[CallArg] = field(default_factory=list)


@dataclass(slots=True)
class PurityOp:
    """One impure operation observed inside a function body."""

    kind: str      # "global-write" | "environ-write" | "class-attr-write"
                   # | "module-mutate" | "open-handle" | "process-state"
    detail: str
    line: int
    col: int


@dataclass(slots=True)
class ReturnInfo:
    """A ``return <unit-named expr>`` observed in a function body."""

    line: int
    col: int
    unit: UnitRef | None


@dataclass(slots=True)
class AssignInfo:
    """An assignment whose target name carries a unit suffix."""

    line: int
    col: int
    target: str
    target_unit: UnitRef
    value_unit: UnitRef | None = None   # value was a unit-named variable
    value_call: str | None = None       # value was a call to this callee


@dataclass(slots=True)
class FunctionInfo:
    """Summary of one function or method."""

    qualname: str             # module-relative ("execute_shard", "Cls.m")
    line: int
    col: int
    params: list[str] = field(default_factory=list)
    kwonly: list[str] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    returns: list[ReturnInfo] = field(default_factory=list)
    assigns: list[AssignInfo] = field(default_factory=list)
    purity: list[PurityOp] = field(default_factory=list)
    is_method: bool = False


@dataclass(slots=True)
class FieldDecl:
    """One annotated class-body field (dataclass or plain class)."""

    name: str
    line: int
    col: int
    mutable_class_default: bool = False


@dataclass(slots=True)
class ClassInfo:
    """Summary of one class: its bases, fields and methods."""

    qualname: str
    line: int
    col: int
    bases: list[str] = field(default_factory=list)
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)


@dataclass(slots=True)
class ModuleSummary:
    """Everything the project-level passes need from one file."""

    module: str
    path: str
    is_init: bool = False
    is_test: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    module_bindings: list[str] = field(default_factory=list)
    mutable_bindings: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Summary extraction
# ----------------------------------------------------------------------


def _absolutize(dotted: str, ctx: FileContext) -> str:
    """Resolve a leading-dots relative import against the file's package.

    ``.config.ExperimentConfig`` inside ``repro/experiments/harness.py``
    → ``repro.experiments.config.ExperimentConfig``.
    """
    if not dotted.startswith("."):
        return dotted
    level = len(dotted) - len(dotted.lstrip("."))
    rest = dotted[level:]
    parts = list(ctx.module_parts)
    # For a plain module the enclosing package is parts[:-1]; for an
    # __init__ the module *is* the package (context pops "__init__").
    base = parts if ctx.path.endswith("__init__.py") else parts[:-1]
    base = base[:len(base) - (level - 1)] if level > 1 else base
    return ".".join(base + ([rest] if rest else [])).strip(".")


def _annotation_tokens(node: ast.expr | None, ctx: FileContext
                       ) -> list[str]:
    """Every type name mentioned in an annotation, canonically resolved.

    ``Mapping[str, ClientTimeline] | None`` →
    ``["typing.Mapping", "str", "repro.client.timeline.ClientTimeline",
    "None"]`` (order of appearance, de-duplicated). Quoted forward
    references are parsed and recursed into.
    """
    tokens: list[str] = []

    def add(token: str) -> None:
        if token not in tokens:
            tokens.append(token)

    def visit(item: ast.expr | None) -> None:
        if item is None:
            return
        if isinstance(item, (ast.Name, ast.Attribute)):
            dotted = ctx.dotted_name(item)
            if dotted is not None:
                add(_absolutize(dotted, ctx))
            return
        if isinstance(item, ast.Constant):
            if item.value is None:
                add("None")
            elif isinstance(item.value, str):
                try:
                    visit(ast.parse(item.value, mode="eval").body)
                except SyntaxError:
                    add(item.value)
            elif item.value is Ellipsis:
                pass
            return
        for child in ast.iter_child_nodes(item):
            if isinstance(child, ast.expr):
                visit(child)

    visit(node)
    return tokens


def _is_mutable_literal(node: ast.expr, ctx: FileContext) -> bool:
    """True for expressions that build a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = ctx.dotted_name(node.func)
        return name in _MUTABLE_FACTORIES
    return False


def _is_dataclass(node: ast.ClassDef, ctx: FileContext) -> bool:
    """True when a ``@dataclass`` decorator (called or bare) is present."""
    return any(
        ctx.dotted_name(deco.func if isinstance(deco, ast.Call) else deco)
        in ("dataclasses.dataclass", "dataclass")
        for deco in node.decorator_list)


class _FunctionExtractor(ast.NodeVisitor):
    """One-pass fact collector for a single function body."""

    def __init__(self, ctx: FileContext, info: FunctionInfo,
                 module_mutables: frozenset[str]) -> None:
        self.ctx = ctx
        self.info = info
        self.module_mutables = module_mutables
        self.globals_declared: set[str] = set()
        self.local_binds: set[str] = set(info.params) | set(info.kwonly)
        self.with_items: set[int] = set()   # id() of exempted call nodes

    # -- helpers --------------------------------------------------------

    def _dotted(self, node: ast.expr) -> str | None:
        name = self.ctx.dotted_name(node)
        return _absolutize(name, self.ctx) if name is not None else None

    def _op(self, kind: str, detail: str, node: ast.AST) -> None:
        self.info.purity.append(PurityOp(
            kind=kind, detail=detail,
            line=getattr(node, "lineno", self.info.line),
            col=getattr(node, "col_offset", 0)))

    def _record_store_target(self, target: ast.expr, node: ast.AST) -> None:
        """Classify one assignment target for purity hazards."""
        if isinstance(target, ast.Name):
            self.local_binds.add(target.id)
            if target.id in self.globals_declared:
                self._op("global-write", target.id, node)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store_target(element, node)
            return
        if isinstance(target, ast.Subscript):
            base = self._dotted(target.value)
            if base == "os.environ":
                self._op("environ-write", "os.environ[...]", node)
            elif (isinstance(target.value, ast.Name)
                  and target.value.id in self.module_mutables
                  and target.value.id not in self.local_binds):
                self._op("module-mutate", target.value.id, node)
            return
        if isinstance(target, ast.Attribute):
            root: ast.expr = target
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id not in ("self",):
                if root.id == "cls":
                    self._op("class-attr-write", f"cls.{target.attr}", node)
                else:
                    dotted = self._dotted(target) or target.attr
                    self._op("attr-write", dotted, node)

    # -- statements -----------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store_target(target, node)
        self._maybe_unit_assign(node.targets[0] if len(node.targets) == 1
                                else None, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_store_target(node.target, node)
        if node.value is not None:
            self._maybe_unit_assign(node.target, node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store_target(node.target, node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._bind_only(node.target)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _bind_only(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.local_binds.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_only(element)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if isinstance(item.context_expr, ast.Call):
                self.with_items.add(id(item.context_expr))
            if item.optional_vars is not None:
                self._bind_only(item.optional_vars)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self.info.returns.append(ReturnInfo(
                line=node.lineno, col=node.col_offset,
                unit=UnitRef.of(node.value)))
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and self._dotted(target.value) == "os.environ"):
                self._op("environ-write", "del os.environ[...]", node)
        self.generic_visit(node)

    # -- nested definitions are their own summaries ---------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested defs are walked separately by the extractor

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            self._record_call(node, dotted)
            self._check_call_purity(node, dotted)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call, dotted: str) -> None:
        args: list[CallArg] = []
        for position, value in enumerate(node.args):
            if isinstance(value, ast.Starred):
                continue
            args.append(CallArg(
                position=position, keyword=None,
                line=value.lineno, col=value.col_offset,
                unit=UnitRef.of(value),
                is_name=isinstance(value, (ast.Name, ast.Attribute))))
        for kw in node.keywords:
            if kw.arg is None:
                continue
            args.append(CallArg(
                position=None, keyword=kw.arg,
                line=kw.value.lineno, col=kw.value.col_offset,
                unit=UnitRef.of(kw.value),
                is_name=isinstance(kw.value, (ast.Name, ast.Attribute))))
        self.info.calls.append(CallSite(
            callee=dotted, line=node.lineno, col=node.col_offset,
            args=args))

    def _check_call_purity(self, node: ast.Call, dotted: str) -> None:
        if dotted in _ENVIRON_WRITERS:
            self._op("environ-write", f"{dotted}()", node)
        elif dotted in _PROCESS_STATE_CALLS:
            if id(node) not in self.with_items:
                self._op("process-state", f"{dotted}()", node)
        elif dotted in ("open", "io.open"):
            if id(node) not in self.with_items:
                self._op("open-handle", f"{dotted}()", node)
        elif "." in dotted:
            base, method = dotted.rsplit(".", 1)
            if (method in _MUTATING_METHODS and "." not in base
                    and base in self.module_mutables
                    and base not in self.local_binds):
                self._op("module-mutate", base, node)

    # -- unit-flow assignments ------------------------------------------

    def _maybe_unit_assign(self, target: ast.expr | None,
                           value: ast.expr, node: ast.AST) -> None:
        if target is None or not isinstance(target, ast.Name):
            return
        target_unit = UnitRef.of(target)
        if target_unit is None:
            return
        value_unit = UnitRef.of(value)
        value_call: str | None = None
        if value_unit is None and isinstance(value, ast.Call):
            value_call = self._dotted(value.func)
        if value_unit is None and value_call is None:
            return
        self.info.assigns.append(AssignInfo(
            line=getattr(node, "lineno", target.lineno),
            col=getattr(node, "col_offset", 0),
            target=target.id, target_unit=target_unit,
            value_unit=value_unit, value_call=value_call))


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef
                     ) -> tuple[list[str], list[str]]:
    """``(positional, keyword-only)`` parameter names, in order."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    return positional, [a.arg for a in args.kwonlyargs]


def build_summary(ctx: FileContext) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` for one parsed file."""
    summary = ModuleSummary(
        module=ctx.module, path=ctx.path,
        is_init=ctx.path.endswith("__init__.py"),
        is_test=ctx.is_test,
    )
    summary.imports = {
        local: _absolutize(target, ctx)
        for local, target in ctx.import_map.items()
    }

    # Module-level bindings (for shared-mutable-state detection).
    for node in ctx.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name):
                summary.module_bindings.append(target.id)
                if value is not None and _is_mutable_literal(value, ctx):
                    summary.mutable_bindings.append(target.id)

    mutable = frozenset(summary.mutable_bindings)

    def walk_defs(body: list[ast.stmt], prefix: str,
                  in_class: bool) -> Iterator[None]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}" if prefix else node.name
                positional, kwonly = _function_params(node)
                info = FunctionInfo(
                    qualname=qualname, line=node.lineno,
                    col=node.col_offset, params=positional, kwonly=kwonly,
                    is_method=in_class)
                extractor = _FunctionExtractor(ctx, info, mutable)
                for stmt in node.body:
                    extractor.visit(stmt)
                summary.functions[qualname] = info
                yield from walk_defs(node.body, qualname, False)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}" if prefix else node.name
                is_dc = _is_dataclass(node, ctx)
                cls_info = ClassInfo(
                    qualname=qualname, line=node.lineno,
                    col=node.col_offset,
                    bases=[token for base in node.bases
                           for token in _annotation_tokens(base, ctx)])
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                            item.target, ast.Name):
                        tokens = _annotation_tokens(item.annotation, ctx)
                        cls_info.fields.append(FieldDecl(
                            name=item.target.id, line=item.lineno,
                            col=item.col_offset,
                            mutable_class_default=(
                                not is_dc and item.value is not None
                                and _is_mutable_literal(item.value, ctx)
                                and "typing.ClassVar" not in tokens
                                and "ClassVar" not in tokens)))
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            if (isinstance(target, ast.Name)
                                    and _is_mutable_literal(item.value, ctx)):
                                cls_info.fields.append(FieldDecl(
                                    name=target.id, line=item.lineno,
                                    col=item.col_offset,
                                    mutable_class_default=True))
                    elif isinstance(item, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        cls_info.methods.append(item.name)
                summary.classes[qualname] = cls_info
                yield from walk_defs(node.body, qualname, True)

    list(walk_defs(ctx.tree.body, "", False))
    return summary


# ----------------------------------------------------------------------
# Project-wide graph
# ----------------------------------------------------------------------


class ModuleGraph:
    """Project-wide symbol index over a set of :class:`ModuleSummary`.

    Provides the resolution primitive every interprocedural pass needs:
    a canonical dotted name (``repro.faults.FaultPlan``) resolves to its
    *defining* ``(module, qualname)`` pair, following import aliases and
    re-exports through package ``__init__.py`` files.
    """

    def __init__(self, summaries: Mapping[str, ModuleSummary]) -> None:
        #: module dotted name → summary
        self.modules: dict[str, ModuleSummary] = dict(summaries)
        #: fully-qualified function name → (summary, FunctionInfo)
        self.functions: dict[str, tuple[ModuleSummary, FunctionInfo]] = {}
        #: fully-qualified class name → (summary, ClassInfo)
        self.classes: dict[str, tuple[ModuleSummary, ClassInfo]] = {}
        #: bare method/function name → sorted fq names defining it
        self.name_index: dict[str, list[str]] = {}
        for module in sorted(self.modules):
            summary = self.modules[module]
            for qualname, info in summary.functions.items():
                fq = f"{module}.{qualname}"
                self.functions[fq] = (summary, info)
                bare = qualname.rsplit(".", 1)[-1]
                self.name_index.setdefault(bare, []).append(fq)
            for qualname, cls in summary.classes.items():
                self.classes[f"{module}.{qualname}"] = (summary, cls)

    @classmethod
    def from_summaries(cls, summaries: list[ModuleSummary]) -> "ModuleGraph":
        """Index a list of summaries by their module names."""
        return cls({summary.module: summary for summary in summaries})

    # -- symbol resolution ----------------------------------------------

    def resolve(self, dotted: str, *, _depth: int = 0) -> str | None:
        """Canonicalize ``dotted`` to its defining fully-qualified name.

        Follows aliases and ``__init__.py`` re-exports up to a small
        depth bound (cycles terminate). Returns ``None`` when the name
        does not land in an analyzed module.
        """
        if _depth > 8:
            return None
        module, remainder = self.split_module(dotted)
        if module is None:
            return None
        summary = self.modules[module]
        if not remainder:
            return module
        head = remainder[0]
        # Defined here?
        candidate = ".".join(remainder)
        if candidate in summary.functions or candidate in summary.classes:
            return f"{module}.{candidate}"
        # Attribute on a class defined here (Cls.method)?
        if head in summary.classes and len(remainder) > 1:
            return self.resolve_method(f"{module}.{head}", remainder[1])
        # Re-exported / aliased?
        if head in summary.imports:
            target = summary.imports[head] + (
                "." + ".".join(remainder[1:]) if len(remainder) > 1 else "")
            return self.resolve(target, _depth=_depth + 1)
        return None

    def split_module(self, dotted: str
                     ) -> tuple[str | None, tuple[str, ...]]:
        """``(longest module prefix, remaining parts)`` of ``dotted``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, tuple(parts[cut:])
        return None, tuple(parts)

    def resolve_method(self, class_fq: str, method: str) -> str | None:
        """Resolve ``method`` on ``class_fq``, walking analyzed bases."""
        seen: set[str] = set()
        stack = [class_fq]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            entry = self.classes.get(current)
            if entry is None:
                continue
            summary, cls = entry
            fq = f"{summary.module}.{cls.qualname}.{method}"
            if fq in self.functions:
                return fq
            for base in cls.bases:
                resolved = self.resolve(base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def function(self, fq: str) -> FunctionInfo | None:
        """The :class:`FunctionInfo` for a fully-qualified name."""
        entry = self.functions.get(fq)
        return entry[1] if entry else None

    def class_info(self, fq: str) -> ClassInfo | None:
        """The :class:`ClassInfo` for a fully-qualified name."""
        entry = self.classes.get(fq)
        return entry[1] if entry else None

    def summary_of(self, fq: str) -> ModuleSummary | None:
        """The defining module summary for a fully-qualified name."""
        entry = self.functions.get(fq) or self.classes.get(fq)
        if entry is not None:
            return entry[0]
        return self.modules.get(fq)
