"""A lightweight, contract-driven static call graph.

Whole-program call-graph construction for python is undecidable; the
zero-materialisation checker does not need it.  It needs exactly three kinds
of edges, all resolvable from the AST plus the declared protocol:

* plain-name calls — bound by a module-level or function-local import, or a
  same-module ``def``;
* ``self.method()`` / ``super().method()`` — the enclosing class and its
  statically-named bases;
* calls through the declared *dispatch names* — the methods of the
  array-query protocol (``community_edges``, ``batch_significant_edges``,
  …), which resolve by name to every project definition, a deliberate
  over-approximation that keeps the walk sound for the protocol while
  ignoring unrelated attribute calls (``queue.get``, ``list.append``).

Nested ``def``/``lambda`` bodies are walked as part of their enclosing
function: the batch entry points hand closures to ``apply_batch_policy``,
so anything a closure calls is reachable from the entry point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.core import Module, Project


def normalise_target(project: Project, target: str) -> Optional[str]:
    """Map an import target onto a project module name, if it names one.

    ``from repro.graph.csr import freeze`` targets ``repro.graph.csr``;
    ``from repro.graph import csr`` targets ``repro.graph`` but *may* bind
    the submodule — both spellings resolve to the deepest project module
    matching a prefix of ``target``.
    """
    parts = target.split(".")
    for end in range(len(parts), 0, -1):
        name = ".".join(parts[:end])
        if name in project:
            return name
    return None


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition: ``module:Class.name`` or ``module:name``."""

    qualname: str
    module: Module
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str]
    class_bases: Tuple[str, ...]


class CallGraph:
    """Indexed project definitions plus the resolution rules above."""

    def __init__(
        self,
        project: Project,
        dispatch_names: Iterable[str] = (),
    ) -> None:
        self.project = project
        self.dispatch_names = set(dispatch_names)
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_name: Dict[str, List[str]] = {}
        self.classes: Dict[str, Tuple[Module, ast.ClassDef]] = {}
        for module in project.modules():
            self._index_module(module)

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #
    def _index_module(self, module: Module) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, None, ())
            elif isinstance(node, ast.ClassDef):
                bases = tuple(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                )
                self.classes.setdefault(f"{module.name}:{node.name}", (module, node))
                self.classes.setdefault(node.name, (module, node))
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(module, child, node.name, bases)

    def _add_function(
        self,
        module: Module,
        node: ast.AST,
        class_name: Optional[str],
        bases: Tuple[str, ...],
    ) -> None:
        name = node.name  # type: ignore[attr-defined]
        qualname = (
            f"{module.name}:{class_name}.{name}" if class_name else f"{module.name}:{name}"
        )
        info = FunctionInfo(qualname, module, node, class_name, bases)
        self.functions[qualname] = info
        self.by_name.setdefault(name, []).append(qualname)

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def _import_bindings(self, info: FunctionInfo) -> Dict[str, Tuple[str, Optional[str]]]:
        """Names bound by imports visible inside ``info``.

        Maps local name → ``(module, attr)``: ``attr`` is ``None`` for
        ``import m as x`` (``x.f`` then names ``m:f``) and the imported
        object's name for ``from m import f as x``.
        Function-local imports shadow module-level ones.
        """
        bindings: Dict[str, Tuple[str, Optional[str]]] = {}

        def record(stmts: Iterable[ast.stmt]) -> None:
            for stmt in stmts:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            local = alias.asname or alias.name.split(".")[0]
                            bindings[local] = (alias.name, None)
                    elif isinstance(node, ast.ImportFrom) and node.module is not None:
                        target = node.module
                        if node.level:
                            target = self.project.resolve_relative(
                                info.module, node.level, node.module
                            )
                        for alias in node.names:
                            local = alias.asname or alias.name
                            bindings[local] = (target, alias.name)

        record(info.module.tree.body)
        record(getattr(info.node, "body", []))
        return bindings

    def _resolve_class_method(self, class_key: str, method: str, seen: Set[str]) -> Optional[str]:
        """Find ``method`` on a class or its statically-named bases."""
        if class_key in seen:
            return None
        seen.add(class_key)
        entry = self.classes.get(class_key)
        if entry is None:
            return None
        module, node = entry
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == method:
                    return f"{module.name}:{node.name}.{method}"
        for base in node.bases:
            base_name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if base_name:
                found = self._resolve_class_method(base_name, method, seen)
                if found:
                    return found
        return None

    def resolve_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> List[str]:
        """Qualnames a call may statically target (empty when unresolvable)."""
        func = call.func
        bindings = self._import_bindings(info)
        targets: List[str] = []

        def add(qualname: Optional[str]) -> None:
            if qualname and qualname in self.functions and qualname not in targets:
                targets.append(qualname)

        def add_callable(module_name: str, attr: str) -> None:
            """A name in another module: a function, or a class (=> __init__)."""
            resolved = normalise_target(self.project, module_name)
            if resolved is None:
                return
            add(f"{resolved}:{attr}")
            if f"{resolved}:{attr}" in self.classes:
                add(f"{resolved}:{attr}.__init__")

        if isinstance(func, ast.Name):
            name = func.id
            if name in bindings:
                module_name, attr = bindings[name]
                if attr is None:
                    # ``import m as x; x(...)`` — calling a module: ignore.
                    pass
                else:
                    add_callable(module_name, attr)
            else:
                add_callable(info.module.name, name)
            if not targets and name in self.dispatch_names:
                for qualname in self.by_name.get(name, ()):
                    add(qualname)
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self" and info.class_name:
                found = self._resolve_class_method(
                    f"{info.module.name}:{info.class_name}", attr, set()
                )
                if found is None:
                    found = self._resolve_class_method(info.class_name, attr, set())
                add(found)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "super"
                and info.class_name
            ):
                for base in info.class_bases:
                    add(self._resolve_class_method(base, attr, set()))
            elif isinstance(value, ast.Name) and value.id in bindings:
                module_name, sub = bindings[value.id]
                if sub is None:
                    # ``import m; m.f(...)``
                    add_callable(module_name, attr)
                else:
                    # ``from m import obj; obj.f(...)`` — obj may be a class:
                    resolved = normalise_target(self.project, module_name)
                    if resolved is not None:
                        add(self._resolve_class_method(f"{resolved}:{sub}", attr, set()))
            if not targets and attr in self.dispatch_names:
                for qualname in self.by_name.get(attr, ()):
                    add(qualname)
        return targets

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def calls_in(self, info: FunctionInfo) -> List[ast.Call]:
        """Every call expression in the function, nested defs included."""
        return [
            node
            for node in ast.walk(info.node)
            if isinstance(node, ast.Call)
        ]

    def reachable(
        self,
        entry_points: Sequence[str],
        pruned: Mapping[str, str] = {},
    ) -> Dict[str, Tuple[str, ...]]:
        """Functions reachable from ``entry_points``.

        Returns ``{qualname: call chain from an entry point}``; ``pruned``
        qualnames are reached but not traversed through (their bodies are
        treated as opaque, with the declared justification).
        """
        chains: Dict[str, Tuple[str, ...]] = {}
        stack: List[Tuple[str, Tuple[str, ...]]] = []
        for entry in entry_points:
            if entry in self.functions:
                stack.append((entry, (entry,)))
        while stack:
            qualname, chain = stack.pop()
            if qualname in chains:
                continue
            chains[qualname] = chain
            if qualname in pruned:
                continue
            info = self.functions[qualname]
            for call in self.calls_in(info):
                for target in self.resolve_call(info, call):
                    if target not in chains:
                        stack.append((target, chain + (target,)))
        return chains


__all__ = ["CallGraph", "FunctionInfo"]
