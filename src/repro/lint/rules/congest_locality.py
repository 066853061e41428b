"""CONGEST-locality rules (family ``CONGEST``).

The paper's model (Section 2) gives each processor only its own
preference list and the public parameters; everything else must arrive
in ``O(log n)``-bit messages.  Node programs — the generator functions
the :class:`~repro.congest.simulator.Simulator` drives — must therefore
act on purely node-local state.  These rules machine-check that
discipline for every module under ``src/repro/congest/protocols/``:

``CONGEST001``
    No module-level mutable state (a list/dict/set at module scope is
    shared by every node program in the process — hidden global
    communication).
``CONGEST002``
    Node programs must not reference global-view objects: the
    communication :class:`~repro.graphs.Graph`, the
    :class:`~repro.congest.simulator.Simulator`, a
    :class:`~repro.core.preferences.PreferenceProfile`, a global
    :class:`~repro.core.matching.Matching`, or any module-level
    mutable binding.
``CONGEST003``
    Node programs must not declare ``global``/``nonlocal`` — writes
    that escape the node's own frame are out-of-band channels.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.engine import Rule, SourceFile, register
from repro.lint.violations import Violation

__all__ = [
    "ModuleLevelMutableRule",
    "NodeProgramGlobalStateRule",
    "NodeProgramScopeEscapeRule",
    "node_program_functions",
]

# Names whose presence inside a node program means it can see (or
# build) a global view of the system.
FORBIDDEN_GLOBAL_VIEWS = frozenset(
    {
        "Graph",
        "Simulator",
        "PreferenceProfile",
        "Matching",
        "MutableMatching",
        "bipartite_graph_from_edges",
    }
)

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)


def _is_mutable_literal(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a shared mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_CALLS:
            return True
    return False


def _own_body_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(fn: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in _own_body_nodes(fn)
    )


def node_program_functions(tree: ast.Module) -> List[ast.FunctionDef]:
    """Every generator function in the module — the node programs.

    Nested generators count too (e.g. a program built inside a lifting
    helper); non-generator driver functions do not.
    """
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and _is_generator(node)
    ]


def _module_level_mutables(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """``(name, value-node)`` for each mutable module-scope binding."""
    out: List[Tuple[str, ast.AST]] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        else:
            continue
        if not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not (
                target.id.startswith("__") and target.id.endswith("__")
            ):
                out.append((target.id, stmt))
    return out


@register
class ModuleLevelMutableRule(Rule):
    rule_id = "CONGEST001"
    family = "CONGEST"
    scope = "protocols"
    description = (
        "Protocol modules must not hold module-level mutable state; "
        "node state lives inside the node program."
    )

    def check(self, src: SourceFile, config: LintConfig) -> Iterator[Violation]:
        for name, stmt in _module_level_mutables(src.tree):
            yield self.violation(
                src,
                stmt,
                f"module-level mutable binding {name!r} is shared across "
                f"node programs (hidden global state in a CONGEST protocol)",
            )


@register
class NodeProgramGlobalStateRule(Rule):
    rule_id = "CONGEST002"
    family = "CONGEST"
    scope = "protocols"
    description = (
        "Node programs may only touch node-local state: no Graph/"
        "Simulator/PreferenceProfile/Matching references or module-level "
        "mutables inside a generator node program."
    )

    def check(self, src: SourceFile, config: LintConfig) -> Iterator[Violation]:
        mutable_names: Set[str] = {
            name for name, _ in _module_level_mutables(src.tree)
        }
        for fn in node_program_functions(src.tree):
            for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
                if arg.annotation is None:
                    continue
                names_used = {
                    node.id
                    for node in ast.walk(arg.annotation)
                    if isinstance(node, ast.Name)
                } | {
                    node.attr
                    for node in ast.walk(arg.annotation)
                    if isinstance(node, ast.Attribute)
                }
                if names_used & FORBIDDEN_GLOBAL_VIEWS:
                    annotation = ast.unparse(arg.annotation)
                    yield self.violation(
                        src,
                        arg,
                        f"node program {fn.name!r} takes parameter "
                        f"{arg.arg!r} annotated {annotation!r} — a global "
                        f"view the CONGEST model does not grant a node",
                    )
            for node in _own_body_nodes(fn):
                if not isinstance(node, ast.Name):
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                if node.id in FORBIDDEN_GLOBAL_VIEWS:
                    yield self.violation(
                        src,
                        node,
                        f"node program {fn.name!r} references global-view "
                        f"name {node.id!r}; nodes act on local state only",
                    )
                elif node.id in mutable_names:
                    yield self.violation(
                        src,
                        node,
                        f"node program {fn.name!r} reads module-level "
                        f"mutable {node.id!r} — shared state between nodes",
                    )


@register
class NodeProgramScopeEscapeRule(Rule):
    rule_id = "CONGEST003"
    family = "CONGEST"
    scope = "protocols"
    description = (
        "Node programs must not use global/nonlocal declarations — "
        "writes escaping the node frame are out-of-band channels."
    )

    def check(self, src: SourceFile, config: LintConfig) -> Iterator[Violation]:
        for fn in node_program_functions(src.tree):
            for node in _own_body_nodes(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    keyword = (
                        "global" if isinstance(node, ast.Global) else "nonlocal"
                    )
                    yield self.violation(
                        src,
                        node,
                        f"node program {fn.name!r} declares {keyword} "
                        f"{', '.join(node.names)!r} — node state must not "
                        f"escape the program's own frame",
                    )
