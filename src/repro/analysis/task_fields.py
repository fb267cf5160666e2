"""Rule ``task-statelessness``: executor task payloads stay picklable.

Everything dispatched through ``Executor.map_tasks`` crosses a process
boundary on the multiprocessing/remote backends, so a task dataclass may
only carry plain data — primitives, numpy arrays, ``EncodedFlows``,
``FrozenState`` and the repo's config dataclasses; the executor packs
the bulk ones itself.  A live object smuggled into a field (a
``Tensor`` with its VJP closures, a ``Callable``, an executor, an open
arena) either fails to pickle at dispatch time on one backend only, or
— worse — pickles but carries state that breaks the bit-identical
contract (e.g. an ``np.random.Generator`` mid-stream).

The same contract covers the packed shape: blob manifests
(``@dataclass`` names ending in ``Manifest``, see
:mod:`repro.runtime.serialization`) must pickle into a frame *and*
hash stably — a manifest field that drags in a live object breaks
content-addressed blob dedup, not just dispatch.  The rule therefore
covers both suffixes.

The check is a *field-type walk* over annotations of every
``@dataclass`` whose name ends in ``Task`` or ``Manifest`` (the
dispatch conventions of ``repro.runtime.chunk_tasks`` and
``repro.runtime.serialization``): container heads are recursed into,
leaf type names must be on the allowlist, and names on the deny list
get a targeted message.  Bare ``Any`` as a whole-field annotation is
rejected as unverifiable; ``Any`` nested inside a container (e.g. the
values of a ``Dict[str, Any]`` state dict) is accepted.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .astutil import decorator_names, terminal_name
from .findings import Finding
from .rules import ModuleSource, Rule, register

__all__ = ["TaskStatelessnessRule", "ALLOWED_FIELD_TYPES",
           "DENIED_FIELD_TYPES"]

#: Container heads whose type arguments are walked recursively.
_CONTAINER_HEADS = frozenset({
    "Optional", "Union", "Tuple", "List", "Dict", "Set", "FrozenSet",
    "Sequence", "Mapping", "Iterable", "tuple", "list", "dict", "set",
    "frozenset",
})

#: Leaf type names accepted as picklable, stateless payload.
ALLOWED_FIELD_TYPES = frozenset({
    "int", "float", "str", "bool", "bytes", "None", "NoneType", "complex",
    # numpy data
    "ndarray",
    # the runtime's payload/config vocabulary
    "FrozenState", "EncodedFlows",
    "DgConfig", "DpSgdConfig", "RowGanConfig", "ColumnSpec",
    "TrainingLog",
    # the packed shape's blob manifest (hash-stable by contract)
    "BlobManifest",
})

#: Known-stateful/unpicklable types, with an explanation each.
DENIED_FIELD_TYPES = {
    "Callable": "callables capture closures that do not pickle",
    "Tensor": "autograd tensors carry VJP closures that do not pickle",
    "Module": "live models must travel as state_dict arrays, not objects",
    "Executor": "executors are per-process infrastructure, not payload",
    "SharedArena": "arenas are owned by the parent process only",
    "SharedMemory": "raw shm handles must not cross the dispatch pipe",
    "Generator": "RNG state in a task breaks seed-derived determinism; "
                 "carry the seed and build the Generator in the worker",
    "RandomState": "legacy RNG state breaks seed-derived determinism",
    "Lock": "synchronisation primitives do not pickle",
    "Thread": "threads do not pickle",
    "Pool": "pools do not pickle",
}


def _is_task_dataclass(node: ast.ClassDef) -> bool:
    return (node.name.endswith(("Task", "Manifest"))
            and "dataclass" in decorator_names(node))


class TaskStatelessnessRule(Rule):
    rule_id = "task-statelessness"
    description = (
        "@dataclass *Task and *Manifest fields must be picklable, "
        "hash-stable data (primitives, ndarray, EncodedFlows, "
        "FrozenState, BlobManifest, config dataclasses) — no "
        "live objects, callables, or RNG state"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_task_dataclass(node):
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleSource,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            field_name = (stmt.target.id
                          if isinstance(stmt.target, ast.Name) else "?")
            bad = self._first_bad_name(stmt.annotation, top_level=True)
            if bad is not None:
                name, reason = bad
                yield self.finding(module, stmt, (
                    f"task field `{cls.name}.{field_name}` has "
                    f"non-stateless type `{name}`: {reason}"
                ))

    def _first_bad_name(self, annotation: ast.AST, top_level: bool = False
                        ) -> Optional[tuple]:
        """Walk a type expression; return (name, reason) for the first
        disallowed leaf, or None when the whole annotation is clean."""
        # String annotations ("ColumnSpec") parse to their expression.
        if isinstance(annotation, ast.Constant):
            if annotation.value is None:
                return None
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    return (annotation.value, "unparseable annotation")
                return self._first_bad_name(parsed, top_level=top_level)
            return None
        if isinstance(annotation, ast.Subscript):
            head = terminal_name(annotation.value)
            if head in _CONTAINER_HEADS:
                inner = annotation.slice
                parts = (inner.elts if isinstance(inner, ast.Tuple)
                         else [inner])
                for part in parts:
                    bad = self._first_bad_name(part)
                    if bad is not None:
                        return bad
                return None
            if head in DENIED_FIELD_TYPES:   # e.g. Callable[..., int]
                return (head, DENIED_FIELD_TYPES[head])
            return (head or "?",
                    "not on the picklable-payload allowlist")
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            name = terminal_name(annotation)
            if name in DENIED_FIELD_TYPES:
                return (name, DENIED_FIELD_TYPES[name])
            if name == "Any":
                if top_level:
                    return ("Any", "a bare Any field is unverifiable; "
                            "annotate the concrete payload type")
                return None  # Any inside a container (state-dict values)
            if name in ALLOWED_FIELD_TYPES:
                return None
            return (name or "?", "not on the picklable-payload allowlist")
        if isinstance(annotation, ast.BinOp) and \
                isinstance(annotation.op, ast.BitOr):
            for side in (annotation.left, annotation.right):
                bad = self._first_bad_name(side)
                if bad is not None:
                    return bad
            return None
        return None


register(TaskStatelessnessRule)
