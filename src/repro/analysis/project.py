"""The whole-program layer: :class:`ProjectGraph`.

The per-file rules see one tree at a time, which is exactly why they cannot
catch a pair of locks taken in opposite orders by two call paths that never
share a file, or an unseeded generator constructed in one module and drawn
by scoring code in another.  :class:`ProjectGraph` builds two graphs on top
of the :class:`~repro.analysis.core.FileContext` list the per-file rules
already parsed:

* the **call graph** — function/method qualnames -> resolved intraproject
  callees, threaded through ``import`` aliases, ``from X import Y``
  bindings, package ``__init__`` re-exports and one level of
  ``self.attr = ClassName(...)`` attribute typing;
* the **lock graph** — ``module.Class.attr`` lock nodes with an edge
  ``A -> B`` wherever some path acquires ``B`` while holding ``A``
  (lexical ``with`` nesting, ``acquire()`` calls, and interprocedural
  nesting through resolved call edges).

Resolution is deliberately *best-effort*: anything dynamic (``getattr``,
decorators that rewrap, callables passed as values, inheritance beyond the
literal class body) degrades to an **unknown** edge rather than a wrong one
or a crash — the rules built on top must treat unknown as "no evidence",
never as "safe" or as "guilty".  DESIGN.md spells out the limits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.core import FileContext, dotted_name

#: Callee marker for calls the resolver cannot follow (dynamic dispatch,
#: out-of-project targets, getattr, higher-order callables).
UNKNOWN = "<unknown>"

#: Threading primitive factory names, by kind.  A ``Condition`` wraps an
#: ordinary non-reentrant lock unless built over an RLock; classifying it
#: non-reentrant is the safe direction for re-acquisition analysis.
_LOCK_KINDS = {
    "Lock": "Lock",
    "RLock": "RLock",
    "Condition": "Condition",
    "Semaphore": "Semaphore",
    "BoundedSemaphore": "Semaphore",
}

#: Lock kinds a thread may re-acquire while already holding them.
REENTRANT_KINDS = frozenset({"RLock", "Semaphore"})


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  #: ``module.func`` or ``module.Class.method``
    module: str
    name: str
    class_name: str | None
    path: str
    lineno: int


@dataclass(frozen=True)
class CallEdge:
    """One call site: *caller* qualname -> *callee* qualname (or UNKNOWN)."""

    caller: str
    callee: str
    raw: str  #: the dotted callee expression as written in source
    path: str
    lineno: int

    @property
    def resolved(self) -> bool:
        return self.callee != UNKNOWN


@dataclass(frozen=True)
class LockSite:
    """One acquisition of a lock attribute inside a method."""

    lock: str  #: ``module.Class.attr``
    method: str  #: qualname of the acquiring method
    path: str
    lineno: int


@dataclass(frozen=True)
class LockEdge:
    """``held`` was held at a point where ``acquired`` is (or may be) taken.

    ``via`` names the resolved callee chain when the nesting crosses a call
    edge (empty for a lexical ``with A: with B:`` nesting).  Edges with
    ``held == acquired`` are re-acquisitions, kept in
    :attr:`ProjectGraph.reacquisitions` instead of the edge list.
    """

    held: str
    acquired: str
    method: str
    path: str
    lineno: int
    via: tuple[str, ...] = ()


@dataclass
class ClassInfo:
    """Call- and lock-relevant facts about one class body."""

    qualname: str  #: ``module.Class``
    module: str
    name: str
    path: str
    lock_attrs: dict[str, str] = field(default_factory=dict)  #: attr -> kind
    methods: dict[str, str] = field(default_factory=dict)  #: name -> qualname
    #: ``self.X = <factory>(...)`` raw factory names, attr -> dotted name;
    #: resolved into :attr:`attr_types` once every class is known.
    attr_factories: dict[str, str] = field(default_factory=dict)
    #: attr -> project class qualname (one level of attribute typing).
    attr_types: dict[str, str] = field(default_factory=dict)


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for a ``self.X`` attribute access, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ImportMap:
    """Per-module import bindings: local alias -> absolute dotted target."""

    def __init__(self, module: str, tree: ast.Module) -> None:
        self.module = module
        #: alias -> dotted module path it stands for (``import a.b as c``;
        #: a plain ``import a.b`` binds the head ``a`` to ``a``).
        self.module_aliases: dict[str, str] = {}
        #: alias -> (source_module, symbol) for ``from a.b import c [as d]``.
        self.symbol_aliases: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.module_aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.module_aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                source = self._resolve_from(node)
                if source is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.symbol_aliases[alias.asname or alias.name] = (
                        source,
                        alias.name,
                    )

    def _resolve_from(self, node: ast.ImportFrom) -> str | None:
        """Absolute source module of a ``from ... import`` statement."""
        if node.level == 0:
            return node.module
        # Relative import: drop `level` trailing components of this module's
        # dotted path (for a plain module, level=1 lands on its package).
        parts = self.module.split(".")
        if len(parts) < node.level:
            return None
        base = parts[: len(parts) - node.level]
        if node.module:
            base.append(node.module)
        return ".".join(base) if base else None


class ProjectGraph:
    """Call and lock graphs over a set of parsed files.

    Build it once per lint run (:func:`build_project_graph`); the project
    rules then query it.  All resolution is intraproject — names that leave
    the parsed module set resolve to :data:`UNKNOWN`.
    """

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: dict[str, FileContext] = {
            ctx.module: ctx for ctx in contexts
        }
        self.functions: dict[str, FunctionInfo] = {}
        #: qualname -> the definition's AST node (for the RNG-flow rules).
        self.function_nodes: dict[str, ast.AST] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.call_edges: list[CallEdge] = []
        self.lock_sites: list[LockSite] = []
        self.lock_edges: list[LockEdge] = []
        self.reacquisitions: list[LockEdge] = []
        #: method qualname -> locks it may (transitively) acquire.
        self.may_acquire: dict[str, set[str]] = {}
        self._import_maps: dict[str, _ImportMap] = {}
        self._module_symbols: dict[str, set[str]] = {}
        self._calls_by_caller: dict[str, list[CallEdge]] = {}
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        for module, ctx in self.contexts.items():
            self._import_maps[module] = _ImportMap(module, ctx.tree)
            self._module_symbols[module] = self._top_level_symbols(ctx.tree)
        for ctx in self.contexts.values():
            self._collect_definitions(ctx)
        for cls in self.classes.values():
            for attr, factory in cls.attr_factories.items():
                resolved = self._resolve_symbol(cls.module, factory)
                if resolved in self.classes:
                    cls.attr_types[attr] = resolved
        for ctx in self.contexts.values():
            self._collect_calls(ctx)
        for edge in self.call_edges:
            self._calls_by_caller.setdefault(edge.caller, []).append(edge)
        self._collect_locks()

    @staticmethod
    def _top_level_symbols(tree: ast.Module) -> set[str]:
        symbols: set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                symbols.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        symbols.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                symbols.add(node.target.id)
        return symbols

    def _collect_definitions(self, ctx: FileContext) -> None:
        module = ctx.module
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[f"{module}.{node.name}"] = FunctionInfo(
                    qualname=f"{module}.{node.name}",
                    module=module,
                    name=node.name,
                    class_name=None,
                    path=ctx.path,
                    lineno=node.lineno,
                )
                self.function_nodes[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{module}.{node.name}",
                    module=module,
                    name=node.name,
                    path=ctx.path,
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{cls.qualname}.{item.name}"
                        cls.methods[item.name] = qualname
                        self.functions[qualname] = FunctionInfo(
                            qualname=qualname,
                            module=module,
                            name=item.name,
                            class_name=node.name,
                            path=ctx.path,
                            lineno=item.lineno,
                        )
                        self.function_nodes[qualname] = item
                for child in ast.walk(node):
                    if isinstance(child, ast.Assign) and isinstance(
                        child.value, ast.Call
                    ):
                        factory = dotted_name(child.value.func)
                        leaf = factory.split(".")[-1]
                        for target in child.targets:
                            attr = _self_attr(target)
                            if attr is None:
                                continue
                            if leaf in _LOCK_KINDS:
                                cls.lock_attrs[attr] = _LOCK_KINDS[leaf]
                            elif factory:
                                cls.attr_factories.setdefault(attr, factory)
                self.classes[cls.qualname] = cls

    def _nearest_module(self, dotted: str) -> str | None:
        """The longest prefix of *dotted* that is a parsed project module."""
        if not dotted:
            return None
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.contexts:
                return candidate
        return None

    # -- symbol resolution ---------------------------------------------------

    def _resolve_export(self, module: str, symbol: str, _depth: int = 0) -> str | None:
        """Qualname that ``from module import symbol`` actually binds.

        Follows package ``__init__`` re-exports up to a small depth; returns
        ``None`` when the chain leaves the parsed project.
        """
        if _depth > 4 or module not in self.contexts:
            return None
        qualname = f"{module}.{symbol}"
        if qualname in self.functions or qualname in self.classes:
            return qualname
        if qualname in self.contexts:  # the symbol is a submodule
            return qualname
        imap = self._import_maps.get(module)
        if imap and symbol in imap.symbol_aliases:
            source, original = imap.symbol_aliases[symbol]
            return self._resolve_export(source, original, _depth + 1)
        if imap and symbol in imap.module_aliases:
            return self._nearest_module(imap.module_aliases[symbol])
        return None

    def _resolve_symbol(self, module: str, dotted: str) -> str | None:
        """Resolve a dotted expression used in *module* to a project qualname."""
        if not dotted:
            return None
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        imap = self._import_maps.get(module)
        if imap is None:
            return None
        if head in imap.symbol_aliases:
            source, original = imap.symbol_aliases[head]
            base = self._resolve_export(source, original)
            return self._extend(base, rest) if base else None
        if head in imap.module_aliases:
            full = ".".join([imap.module_aliases[head], *rest])
            anchor = self._nearest_module(full)
            if anchor is None:
                return None
            remainder = full[len(anchor) :].lstrip(".")
            if not remainder:
                return anchor
            base = self._resolve_export(anchor, remainder.split(".")[0])
            return self._extend(base, remainder.split(".")[1:]) if base else None
        if head in self._module_symbols.get(module, ()):
            qualname = f"{module}.{head}"
            if qualname in self.functions or qualname in self.classes:
                return self._extend(qualname, rest)
        return None

    def _extend(self, base: str, rest: Iterable[str]) -> str | None:
        for part in rest:
            if base in self.contexts:
                base = self._resolve_export(base, part)  # type: ignore[assignment]
            elif base in self.classes:
                base = self.classes[base].methods.get(part)  # type: ignore[assignment]
            else:
                return None
            if base is None:
                return None
        return base

    # -- call graph ----------------------------------------------------------

    def _collect_calls(self, ctx: FileContext) -> None:
        module = ctx.module
        module_scope = f"{module}.<module>"
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_calls(node, f"{module}.{node.name}", None, module, ctx.path)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._scan_calls(
                            item,
                            f"{module}.{node.name}.{item.name}",
                            node.name,
                            module,
                            ctx.path,
                        )
                    else:
                        self._scan_calls(
                            item, module_scope, node.name, module, ctx.path
                        )
            else:
                self._scan_calls(node, module_scope, None, module, ctx.path)

    def _scan_calls(
        self,
        root: ast.AST,
        caller: str,
        class_name: str | None,
        module: str,
        path: str,
    ) -> None:
        # Calls inside closures nested in *root* are attributed to *root*:
        # the closure shares its fate (it runs, if ever, on behalf of the
        # enclosing scope — a coarse but safe attribution).
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            callee = (
                self._resolve_call_target(raw, class_name, module) or UNKNOWN
                if raw
                else UNKNOWN
            )
            self.call_edges.append(
                CallEdge(
                    caller=caller,
                    callee=callee,
                    raw=raw,
                    path=path,
                    lineno=getattr(node, "lineno", 0),
                )
            )

    def _resolve_call_target(
        self, raw: str, class_name: str | None, module: str
    ) -> str | None:
        parts = raw.split(".")
        if parts[0] == "self":
            if class_name is None:
                return None
            cls = self.classes.get(f"{module}.{class_name}")
            if cls is None or len(parts) < 2:
                return None
            if len(parts) == 2:
                return cls.methods.get(parts[1])
            # self.attr.method(): one level of attribute typing.
            attr_type = cls.attr_types.get(parts[1])
            if attr_type is not None and len(parts) == 3:
                return self.classes[attr_type].methods.get(parts[2])
            return None
        resolved = self._resolve_symbol(module, raw)
        if resolved in self.classes:
            # Calling a class constructs it; model the edge as its __init__
            # when present so lock summaries flow through construction.
            return self.classes[resolved].methods.get("__init__", resolved)
        return resolved

    # -- lock graph ----------------------------------------------------------

    def _collect_locks(self) -> None:
        held_calls: list[tuple[str, frozenset[str], CallEdge]] = []
        direct: dict[str, set[str]] = {
            qualname: set() for qualname in self.functions
        }
        for cls in self.classes.values():
            ctx = self.contexts.get(cls.module)
            if ctx is None:
                continue
            for node in ctx.tree.body:
                if not (isinstance(node, ast.ClassDef) and node.name == cls.name):
                    continue
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{cls.qualname}.{item.name}"
                        direct[qualname] = self._scan_method_locks(
                            item, cls, qualname, ctx.path, held_calls
                        )
        # Fixed-point may-acquire summaries across resolved call edges.
        may_acquire = {qualname: set(locks) for qualname, locks in direct.items()}
        changed = True
        while changed:
            changed = False
            for qualname in may_acquire:
                for edge in self._calls_by_caller.get(qualname, ()):
                    callee_locks = may_acquire.get(edge.callee)
                    if callee_locks and not callee_locks <= may_acquire[qualname]:
                        may_acquire[qualname] |= callee_locks
                        changed = True
        self.may_acquire = may_acquire
        # Interprocedural edges: a call made while holding H, into a method
        # that may acquire B, nests B under every lock of H.
        for method, held, edge in held_calls:
            for lock in sorted(may_acquire.get(edge.callee, ())):
                for holder in sorted(held):
                    record = LockEdge(
                        held=holder,
                        acquired=lock,
                        method=method,
                        path=edge.path,
                        lineno=edge.lineno,
                        via=(edge.callee,),
                    )
                    if holder == lock:
                        self.reacquisitions.append(record)
                    else:
                        self.lock_edges.append(record)

    def _scan_method_locks(
        self,
        fn: ast.AST,
        cls: ClassInfo,
        qualname: str,
        path: str,
        held_calls: list[tuple[str, frozenset[str], CallEdge]],
    ) -> set[str]:
        """Walk one method tracking the held-lock set; returns locks acquired."""
        acquired_here: set[str] = set()
        lock_of = {attr: f"{cls.qualname}.{attr}" for attr in cls.lock_attrs}
        edges_at: dict[tuple[int, str], CallEdge] = {}
        for edge in self._calls_by_caller.get(qualname, ()):
            edges_at.setdefault((edge.lineno, edge.raw), edge)

        def acquire_attr(call: ast.Call) -> str | None:
            """The lock attr for a ``self.X.acquire()`` call, else None."""
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "acquire":
                attr = _self_attr(func.value)
                if attr in lock_of:
                    return attr
            return None

        def release_attr(call: ast.Call) -> str | None:
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "release":
                attr = _self_attr(func.value)
                if attr in lock_of:
                    return attr
            return None

        def visit_block(statements: Iterable[ast.stmt], held: frozenset[str]) -> None:
            """Visit a statement sequence; bare acquire() extends *held* for
            the remainder of the sequence, release() retracts it."""
            current = held
            for stmt in statements:
                visit(stmt, current)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        attr = acquire_attr(node)
                        if attr is not None:
                            current = current | {lock_of[attr]}
                        attr = release_attr(node)
                        if attr is not None:
                            current = current - {lock_of[attr]}

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, ast.With):
                new_held = held
                for item in node.items:
                    attr = _self_attr(item.context_expr)
                    if attr in lock_of:
                        lock = lock_of[attr]
                        self._record_acquisition(
                            lock, qualname, path, item.context_expr, new_held
                        )
                        acquired_here.add(lock)
                        new_held = new_held | {lock}
                visit_block(node.body, new_held)
                return
            if isinstance(node, ast.Call):
                attr = acquire_attr(node)
                if attr is not None:
                    lock = lock_of[attr]
                    self._record_acquisition(lock, qualname, path, node, held)
                    acquired_here.add(lock)
                raw = dotted_name(node.func)
                if held and raw and not raw.endswith((".acquire", ".release")):
                    edge = edges_at.get((getattr(node, "lineno", 0), raw))
                    if edge is not None and edge.resolved:
                        held_calls.append((qualname, held, edge))
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        visit_block(getattr(fn, "body", []), frozenset())
        return acquired_here

    def _record_acquisition(
        self,
        lock: str,
        method: str,
        path: str,
        node: ast.AST,
        held: frozenset[str],
    ) -> None:
        lineno = getattr(node, "lineno", 0)
        self.lock_sites.append(
            LockSite(lock=lock, method=method, path=path, lineno=lineno)
        )
        for holder in sorted(held):
            record = LockEdge(
                held=holder, acquired=lock, method=method, path=path, lineno=lineno
            )
            if holder == lock:
                self.reacquisitions.append(record)
            else:
                self.lock_edges.append(record)

    # -- queries -------------------------------------------------------------

    def calls_from(self, qualname: str) -> list[CallEdge]:
        """Call edges whose caller is *qualname* (resolved and unknown)."""
        return list(self._calls_by_caller.get(qualname, ()))

    def lock_kind(self, lock: str) -> str:
        """The primitive kind of a ``module.Class.attr`` lock node."""
        owner, _, attr = lock.rpartition(".")
        cls = self.classes.get(owner)
        if cls is None:
            return "unknown"
        return cls.lock_attrs.get(attr, "unknown")

    def lock_cycles(self) -> list[tuple[LockEdge, ...]]:
        """Elementary cycles in the lock-acquisition graph.

        Each cycle is a tuple of witness edges ``A->B, B->C, ..., Z->A``;
        a two-lock inversion comes out as a two-edge cycle.  Deduplicated
        by the rotated node sequence, so each cycle is reported once.
        """
        adjacency: dict[str, dict[str, LockEdge]] = {}
        for edge in self.lock_edges:
            adjacency.setdefault(edge.held, {}).setdefault(edge.acquired, edge)
        seen: set[tuple[str, ...]] = set()
        cycles: list[tuple[LockEdge, ...]] = []

        def search(
            start: str, node: str, trail: list[LockEdge], visited: set[str]
        ) -> None:
            for target, edge in sorted(adjacency.get(node, {}).items()):
                if target == start and trail is not None and len(trail) >= 1:
                    nodes = tuple(e.held for e in trail) + (node,)
                    pivot = nodes.index(min(nodes))
                    key = nodes[pivot:] + nodes[:pivot]
                    if key not in seen:
                        seen.add(key)
                        cycles.append(tuple([*trail, edge]))
                elif target != start and target not in visited and len(trail) < 6:
                    search(start, target, [*trail, edge], visited | {target})

        for node in sorted(adjacency):
            search(node, node, [], {node})
        return cycles

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Function qualnames reachable from *roots* over resolved calls."""
        frontier = list(roots)
        reached: set[str] = set(frontier)
        while frontier:
            current = frontier.pop()
            for edge in self._calls_by_caller.get(current, ()):
                if edge.resolved and edge.callee not in reached:
                    reached.add(edge.callee)
                    frontier.append(edge.callee)
        return reached

    def functions_in(self, module_prefixes: Iterable[str]) -> list[str]:
        """Qualnames (incl. ``<module>`` pseudo-scopes) under the prefixes."""
        prefixes = tuple(module_prefixes)

        def in_scope(module: str) -> bool:
            return any(module == p or module.startswith(p + ".") for p in prefixes)

        names = [
            qualname
            for qualname, info in self.functions.items()
            if in_scope(info.module)
        ]
        names += [f"{module}.<module>" for module in self.contexts if in_scope(module)]
        return sorted(names)


def build_project_graph(contexts: Sequence[FileContext]) -> ProjectGraph:
    """Build the whole-program graph over already-parsed files."""
    return ProjectGraph(contexts)
