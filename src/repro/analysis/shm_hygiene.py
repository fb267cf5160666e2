"""Rule ``shm-hygiene``: shared-memory blocks must be scope-managed.

POSIX shared memory persists until explicitly unlinked — a
``SharedArena`` (or raw ``multiprocessing.shared_memory.SharedMemory``)
that falls out of scope without cleanup leaks host memory across
process exit (the reason ``repro.runtime.shm`` routes everything
through arena ownership).  A construction is accepted when the block's
lifetime is visibly managed:

* used as a context manager (``with SharedArena() as arena:``);
* ``close()``/``unlink()`` called on the bound name in the same scope
  (try/finally or straight-line);
* stored into an attribute or container (ownership handed to a
  registry, e.g. ``self._blocks[name] = block``);
* returned/yielded directly (a factory — the caller takes ownership).

The rule also flags ``ArrayRef``-producing ``arena.share_array``
results that are *returned* from inside the arena's ``with`` block:
the ref outlives the blocks it points at, so attaching it later
dereferences unlinked memory.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from .astutil import call_name, terminal_name
from .findings import Finding
from .rules import ModuleSource, Rule, register

__all__ = ["ShmHygieneRule"]

_CONSTRUCTORS = frozenset({"SharedArena", "SharedMemory"})
_CLEANUP_METHODS = frozenset({"close", "unlink"})
_SHARE_METHODS = frozenset({"share_array"})


def _assigned_name(node: ast.Assign) -> Optional[str]:
    if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def _enclosing_scope(node: ast.AST, parents) -> ast.AST:
    """Nearest enclosing function (or module) of a node."""
    current = parents.get(id(node))
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Module)):
            return current
        current = parents.get(id(current))
    return node


class _ScopeFacts:
    """What happens to each name within one function/module scope."""

    def __init__(self, scope: ast.AST):
        self.cleaned: Set[str] = set()       # x.close() / x.unlink()
        self.stored: Set[str] = set()        # self.a = x / d[k] = x
        self.escaped: Set[str] = set()       # return x / yield x
        self.with_managed: Set[str] = set()  # with x: ...
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _CLEANUP_METHODS
                        and isinstance(func.value, ast.Name)):
                    self.cleaned.add(func.value.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and isinstance(node.value, ast.Name):
                        self.stored.add(node.value.id)
            elif isinstance(node, (ast.Return, ast.Yield)):
                if isinstance(node.value, ast.Name):
                    self.escaped.add(node.value.id)
            elif isinstance(node, ast.With):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Name):
                        self.with_managed.add(item.context_expr.id)


def _is_escaping_construction(node: ast.AST, parents) -> bool:
    """Constructor call used directly in return/with/yield — managed."""
    parent = parents.get(id(node))
    while parent is not None:
        if isinstance(parent, (ast.Return, ast.Yield)):
            return True
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, ast.stmt):
            return False
        parent = parents.get(id(parent))
    return False


class ShmHygieneRule(Rule):
    rule_id = "shm-hygiene"
    description = (
        "SharedArena/SharedMemory construction must be with-scoped, "
        "close()-paired, or ownership-transferred; ArrayRefs must not "
        "be returned out of their arena's with block"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        parents = {}
        for node in ast.walk(module.tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node

        yield from self._check_constructions(module, parents)
        yield from self._check_ref_escapes(module)

    # -- unclosed constructions ---------------------------------------
    def _check_constructions(self, module: ModuleSource, parents
                             ) -> Iterator[Finding]:
        facts_cache = {}
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and call_name(node) in _CONSTRUCTORS):
                continue
            parent = parents.get(id(node))
            # `with SharedArena() as a:` — the withitem manages it.
            if isinstance(parent, ast.withitem):
                continue
            if _is_escaping_construction(node, parents):
                continue
            if isinstance(parent, ast.Assign):
                # `self.arena = SharedArena()` / `d[k] = SharedArena()`:
                # ownership handed straight to an attribute or registry.
                if all(isinstance(t, (ast.Attribute, ast.Subscript))
                       for t in parent.targets):
                    continue
                scope = _enclosing_scope(node, parents)
                facts = facts_cache.get(id(scope))
                if facts is None:
                    facts = facts_cache[id(scope)] = _ScopeFacts(scope)
                name = _assigned_name(parent)
                if name and (name in facts.cleaned
                             or name in facts.stored
                             or name in facts.escaped
                             or name in facts.with_managed):
                    continue
                yield self.finding(module, node, (
                    f"{call_name(node)} constructed without lifetime "
                    "management: use a with block, pair with close()/"
                    "unlink() in a try/finally, or hand ownership to a "
                    "registry — POSIX shm leaks past process exit otherwise"
                ))
            elif isinstance(parent, ast.Expr):
                # Bare `SharedArena()` expression: created and dropped.
                yield self.finding(module, node, (
                    f"{call_name(node)} created and immediately "
                    "dropped: the block is never unlinked"
                ))

    # -- ArrayRef escaping its arena ----------------------------------
    def _check_ref_escapes(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            arena_names = set()
            for item in node.items:
                ctx = item.context_expr
                if (isinstance(ctx, ast.Call)
                        and call_name(ctx) == "SharedArena"
                        and isinstance(item.optional_vars, ast.Name)):
                    arena_names.add(item.optional_vars.id)
            if not arena_names:
                continue
            ref_names = self._share_result_names(node, arena_names)
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Return) or sub.value is None:
                    continue
                if self._mentions(sub.value, ref_names, arena_names):
                    yield self.finding(module, sub, (
                        "ArrayRef returned from inside its arena's with "
                        "block: the blocks it references are unlinked when "
                        "the block exits, so attaching it later fails"
                    ))

    @staticmethod
    def _share_result_names(with_node: ast.With,
                            arena_names: Set[str]) -> Set[str]:
        names: Set[str] = set()
        for sub in ast.walk(with_node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                func = sub.value.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _SHARE_METHODS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in arena_names):
                    name = _assigned_name(sub)
                    if name:
                        names.add(name)
        return names

    @staticmethod
    def _mentions(expr: ast.AST, ref_names: Set[str],
                  arena_names: Set[str]) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id in ref_names:
                return True
            if isinstance(sub, ast.Call):
                func = sub.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _SHARE_METHODS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in arena_names):
                    return True
        return False


register(ShmHygieneRule)
