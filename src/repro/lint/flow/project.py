"""Project model for the flow analyzer: symbols, imports, call graph.

Builds a whole-program view from the parsed sources one
:func:`repro.lint.engine.run_lint` invocation collected:

* every module, keyed by its dotted qualified name (derived from the
  file path — ``src/repro/congest/simulator.py`` becomes
  ``repro.congest.simulator``),
* every function and method, keyed by qualified name
  (``repro.congest.simulator.Simulator.step``),
* each module's import table (local alias → imported qualified name,
  relative imports resolved), and
* the set-typed attributes of every class (annotations plus
  statically set-valued ``self.x = ...`` assignments), which is how a
  ``set`` stored on an object in one method taints a loop over it in
  another.

Call resolution is *conservative on dynamic dispatch*: a plain-name
call resolves through local definitions and the import table; an
attribute call (``obj.step()``) resolves by method name against every
class in the project that defines it, capped so a ubiquitous name
cannot explode the analysis — unless the receiver is a fresh instance,
``Cls(...).step()``, whose class (followed through package re-exports)
is known and defines the method.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectModel", "module_qname"]

# An attribute-call name matching more project methods than this is
# treated as unresolvable rather than fanning taint across the tree.
_MAX_DISPATCH_CANDIDATES = 8

_SET_TYPE_NAMES = frozenset({"Set", "FrozenSet", "set", "frozenset",
                             "AbstractSet", "MutableSet"})


def module_qname(path: str) -> str:
    """The dotted module name a source path denotes.

    Anchored at the ``src`` directory when present (the repository and
    fixture layout), otherwise at the last path components — enough to
    keep qualified names unique within one analysis run.
    """
    parts = path.replace("\\", "/").split("/")
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    else:
        parts = parts[-2:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def _is_set_annotation(annotation: Optional[ast.AST]) -> bool:
    """Whether an annotation names an unordered set type."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Name):
        return annotation.id in _SET_TYPE_NAMES
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_TYPE_NAMES
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        name = (
            base.id
            if isinstance(base, ast.Name)
            else base.attr
            if isinstance(base, ast.Attribute)
            else None
        )
        if name in _SET_TYPE_NAMES:
            return True
        if name == "Optional":
            return _is_set_annotation(annotation.slice)
    return False


def _is_set_valued(node: ast.AST) -> bool:
    """Whether an expression is statically set-valued (shallow check)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@dataclass
class FunctionInfo:
    """One function or method of the project."""

    qname: str
    module: str
    cls: Optional[str]
    name: str
    node: ast.AST
    path: str
    params: Tuple[str, ...] = ()
    is_generator: bool = False


@dataclass
class ModuleInfo:
    """One parsed module plus its import table."""

    qname: str
    path: str
    tree: ast.Module
    # Local alias -> imported qualified name.
    imports: Dict[str, str] = field(default_factory=dict)


class ProjectModel:
    """The whole-program symbol table and call graph substrate."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        # Method name -> qualified names of every project method with it.
        self.methods_by_name: Dict[str, List[str]] = {}
        # Qualified names of every project class.
        self.classes: Set[str] = set()
        # Class qname -> set-typed attribute names.
        self.set_attrs: Dict[str, Set[str]] = {}
        # Attribute names set-typed in *any* class (dispatch fallback).
        self.set_attr_names: Set[str] = set()
        # (class qname, attr) -> declaration site (path, line, col).
        self.set_attr_decls: Dict[
            Tuple[str, str], Tuple[str, int, int]
        ] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, sources: Sequence[Tuple[str, ast.Module]]) -> "ProjectModel":
        """Build the model from ``(path, parsed tree)`` pairs."""
        model = cls()
        for path, tree in sorted(sources, key=lambda item: item[0]):
            qname = module_qname(path)
            module = ModuleInfo(qname=qname, path=path, tree=tree)
            model.modules[qname] = module
            model._index_imports(module)
            model._index_definitions(module)
        return model

    def _index_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: resolve against the module qname.
                    parts = module.qname.split(".")
                    anchor = parts[: max(0, len(parts) - node.level)]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    local = alias.asname or alias.name
                    module.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _index_definitions(self, module: ModuleInfo) -> None:
        def add_function(
            node: ast.AST, cls_name: Optional[str]
        ) -> None:
            name = node.name  # type: ignore[attr-defined]
            qname = (
                f"{module.qname}.{cls_name}.{name}"
                if cls_name
                else f"{module.qname}.{name}"
            )
            args = node.args  # type: ignore[attr-defined]
            params = tuple(
                a.arg for a in list(args.posonlyargs) + list(args.args)
            )
            is_gen = any(
                isinstance(inner, (ast.Yield, ast.YieldFrom))
                for inner in ast.walk(node)
                if not isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                or inner is node
            )
            info = FunctionInfo(
                qname=qname,
                module=module.qname,
                cls=cls_name,
                name=name,
                node=node,
                path=module.path,
                params=params,
                is_generator=is_gen,
            )
            self.functions[qname] = info
            if cls_name:
                self.methods_by_name.setdefault(name, []).append(qname)

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(node, None)
            elif isinstance(node, ast.ClassDef):
                cls_qname = f"{module.qname}.{node.name}"
                self.classes.add(cls_qname)
                attrs = self.set_attrs.setdefault(cls_qname, set())
                def declare(attr: str, site: ast.AST) -> None:
                    attrs.add(attr)
                    self.set_attr_decls.setdefault(
                        (cls_qname, attr),
                        (
                            module.path,
                            getattr(site, "lineno", 1),
                            getattr(site, "col_offset", 0),
                        ),
                    )

                for stmt in node.body:
                    if isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        add_function(stmt, node.name)
                    elif isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        if _is_set_annotation(stmt.annotation):
                            declare(stmt.target.id, stmt)
                # self.x: Set[...] annotations and self.x = set() in
                # methods both declare a set-typed attribute.
                for inner in ast.walk(node):
                    target: Optional[ast.AST] = None
                    is_set = False
                    if isinstance(inner, ast.AnnAssign):
                        target = inner.target
                        is_set = _is_set_annotation(inner.annotation)
                    elif isinstance(inner, ast.Assign) and len(
                        inner.targets
                    ) == 1:
                        target = inner.targets[0]
                        is_set = _is_set_valued(inner.value)
                    if (
                        is_set
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        declare(target.attr, inner)
                self.set_attr_names.update(attrs)

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------

    def resolve_call(
        self, func: ast.AST, module: ModuleInfo, cls_name: Optional[str]
    ) -> List[str]:
        """Qualified names a call target may resolve to (possibly empty).

        An empty list means the callee is unknown (builtin, stdlib, or
        too dynamic) and the caller falls back to conservative
        propagation.
        """
        if isinstance(func, ast.Name):
            local = f"{module.qname}.{func.id}"
            if local in self.functions:
                return [local]
            if cls_name is not None:
                method = f"{module.qname}.{cls_name}.{func.id}"
                if method in self.functions:
                    return [method]
            imported = module.imports.get(func.id)
            if imported is not None and imported in self.functions:
                return [imported]
            return []
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name):
                if receiver.id == "self" and cls_name is not None:
                    own = f"{module.qname}.{cls_name}.{func.attr}"
                    if own in self.functions:
                        return [own]
                # mod.fn(...) through the import table.
                imported = module.imports.get(receiver.id)
                if imported is not None:
                    direct = f"{imported}.{func.attr}"
                    if direct in self.functions:
                        return [direct]
            elif isinstance(receiver, ast.Call):
                # Cls(...).method(): the receiver's class is known.
                cls_qname = self._class_of(receiver.func, module)
                if cls_qname is not None:
                    method = f"{cls_qname}.{func.attr}"
                    if method in self.functions:
                        return [method]
            # Dynamic dispatch: every project method with this name.
            candidates = self.methods_by_name.get(func.attr, [])
            if 0 < len(candidates) <= _MAX_DISPATCH_CANDIDATES:
                return list(candidates)
        return []

    def _class_of(self, func: ast.AST, module: ModuleInfo) -> Optional[str]:
        """The project class a constructor call's callee names, if any.

        Follows ``from pkg import Cls`` through the package's own
        import table, so a class re-exported by an ``__init__`` resolves
        to the module that defines it.
        """
        if not isinstance(func, ast.Name):
            return None
        target = f"{module.qname}.{func.id}"
        if target in self.classes:
            return target
        target = module.imports.get(func.id, "")
        seen: Set[str] = set()
        while target not in self.classes and target not in seen:
            seen.add(target)
            owner, _, name = target.rpartition(".")
            info = self.modules.get(owner)
            if info is None or name not in info.imports:
                return None
            target = info.imports[name]
        return target if target in self.classes else None
