"""Registry-drift guard: contracts ↔ grad checks ↔ the real op surface.

Three registries describe the ``repro.nn`` kernel/op surface and they
must not drift apart:

1. the **kernel contract registry** (``repro.nn.contracts``) — one
   declarative aliasing/mutation contract per numpy kernel the tape
   may replay;
2. the **graph-check registry** (``repro.analysis.graph_check``) — one
   double-backprop-verified op program per differentiable op;
3. the **actual op surface** — the ``Tensor`` operator methods plus
   the public ``repro.nn.autograd`` / ``repro.nn.functional`` helpers.

This module cross-checks all three.  It AST-scans ``src/repro`` for
tape-entry kernel launches (``ka(np.X, ...)``, ``_REC.k/a/inplace``)
and requires an explicit contract for every launched kernel; it checks
every declared contract still resolves to a live numpy callable; and
it checks the 38-op graph-check registry against the mechanical
enumeration of the public op surface, both directions.  A new op added
without a contract or a grad-check registration turns into a CI
failure via ``python -m repro.analysis --check-tapes``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from .astutil import numpy_aliases, terminal_name

__all__ = ["scan_kernel_launches", "check_registry_sync", "OP_SURFACE"]

#: module-level launch shims whose first argument is the kernel.
_LAUNCH_FUNCS = frozenset({"ka", "_ka"})

#: recorder methods whose first argument is the kernel.
_RECORDER_METHODS = frozenset({"k", "a", "inplace"})
_RECORDER_NAMES = frozenset({"_REC", "RECORDER"})

#: graph-check op name -> where the op lives on the public surface.
#: ("tensor", attr) = a Tensor method, ("autograd", name) / ("functional",
#: name) = a module-level helper re-exported from repro.nn.
OP_SURFACE: Dict[str, Tuple[str, str]] = {
    "add": ("tensor", "__add__"),
    "sub": ("tensor", "__sub__"),
    "neg": ("tensor", "__neg__"),
    "mul": ("tensor", "__mul__"),
    "div": ("tensor", "__truediv__"),
    "pow": ("tensor", "__pow__"),
    "matmul": ("tensor", "__matmul__"),
    "matmul_batched": ("tensor", "__matmul__"),
    "exp": ("tensor", "exp"),
    "log": ("tensor", "log"),
    "sqrt": ("tensor", "sqrt"),
    "square": ("tensor", "square"),
    "tanh": ("tensor", "tanh"),
    "sigmoid": ("tensor", "sigmoid"),
    "relu": ("tensor", "relu"),
    "leaky_relu": ("tensor", "leaky_relu"),
    "abs": ("tensor", "abs"),
    "clip_values": ("tensor", "clip_values"),
    "sum": ("tensor", "sum"),
    "mean": ("tensor", "mean"),
    "max": ("tensor", "max"),
    "reshape": ("tensor", "reshape"),
    "broadcast_to": ("tensor", "broadcast_to"),
    "transpose": ("tensor", "transpose"),
    "getitem_slice": ("tensor", "__getitem__"),
    "getitem_fancy": ("tensor", "__getitem__"),
    "concatenate": ("autograd", "concatenate"),
    "stack": ("autograd", "stack"),
    "where": ("autograd", "where"),
    "maximum": ("autograd", "maximum"),
    "minimum": ("autograd", "minimum"),
    "softmax": ("functional", "softmax"),
    "log_softmax": ("functional", "log_softmax"),
    "cross_entropy": ("functional", "cross_entropy"),
    "bce_with_logits": ("functional", "binary_cross_entropy_with_logits"),
    "mse_loss": ("functional", "mse_loss"),
    "l2_norm": ("functional", "l2_norm"),
    "gumbel_softmax": ("functional", "gumbel_softmax"),
}

#: Tensor attributes that are infrastructure, not ops.
_TENSOR_INFRA = frozenset({
    "__init__", "__repr__", "__len__", "detach", "numpy", "item",
})
#: reflected dunders — aliases of the forward op, not separate ops.
_TENSOR_REFLECTED = frozenset({
    "__radd__", "__rmul__", "__rsub__", "__rtruediv__",
})
#: autograd exports that are plumbing rather than ops.
_AUTOGRAD_INFRA = frozenset({
    "Tensor", "tensor", "grad", "no_grad", "is_grad_enabled",
})


def _np_dotted(node: ast.AST, aliases) -> Optional[str]:
    """``np.add.at`` -> ``add.at`` when the chain is rooted at a numpy
    alias, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases and parts:
        return ".".join(reversed(parts))
    return None


def _resolve_numpy(dotted: str):
    """Resolve ``add.at`` / ``clip`` against numpy, else None."""
    obj = np
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _scan_module(path: str, text: str) -> List[Tuple[str, str, int]]:
    """All tape-entry kernel launches in one module as
    ``(numpy_dotted_name, path, line)``."""
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError:
        return []
    aliases = set(numpy_aliases(tree))
    launches: List[Tuple[str, str, int]] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        is_launch = (isinstance(func, ast.Name)
                     and func.id in _LAUNCH_FUNCS)
        if not is_launch and isinstance(func, ast.Attribute):
            owner = func.value
            is_launch = (func.attr in _RECORDER_METHODS
                         and isinstance(owner, ast.Name)
                         and owner.id in _RECORDER_NAMES)
        if not is_launch:
            continue
        dotted = _np_dotted(node.args[0], aliases)
        if dotted:
            launches.append((dotted, path, node.lineno))
    return launches


def scan_kernel_launches(root: Optional[str] = None
                         ) -> Dict[str, List[Tuple[str, int]]]:
    """AST-scan the source tree for tape-entry kernel launches.
    Returns ``{numpy_dotted_name: [(path, line), ...]}``."""
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sites: Dict[str, List[Tuple[str, int]]] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if not d.startswith((".", "__"))]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError:
                continue
            for dotted, where, line in _scan_module(path, text):
                sites.setdefault(dotted, []).append(
                    (os.path.relpath(where, root), line))
    return sites


def check_registry_sync(root: Optional[str] = None) -> Dict:
    """Cross-check the three registries.  Returns a JSON-ready report;
    ``report["issues"] == []`` is the pass condition."""
    from repro.nn import autograd as _autograd
    from repro.nn import functional as _functional
    from repro.nn.autograd import Tensor
    from repro.nn.contracts import (declared_kernel_names,
                                    has_explicit_contract, kernel_name)

    from .graph_check import registered_op_names

    issues: List[Dict] = []

    # -- 1. every launched kernel has an explicit contract -------------
    launches = scan_kernel_launches(root)
    for dotted in sorted(launches):
        fn = _resolve_numpy(dotted)
        if fn is None:
            issues.append({
                "kind": "unresolvable-launch", "name": dotted,
                "detail": f"launch site names np.{dotted}, which does "
                          f"not resolve on this numpy",
                "sites": [f"{p}:{line}" for p, line in launches[dotted]],
            })
            continue
        name = kernel_name(fn)
        if not has_explicit_contract(name):
            issues.append({
                "kind": "missing-contract", "name": name,
                "detail": f"kernel np.{dotted} is launched into tapes "
                          f"but has no declared KernelContract",
                "sites": [f"{p}:{line}" for p, line in launches[dotted]],
            })

    # -- 2. every declared contract resolves on numpy ------------------
    for name in sorted(declared_kernel_names()):
        if _resolve_numpy(name) is None:
            issues.append({
                "kind": "stale-contract", "name": name,
                "detail": f"contract declared for {name!r} but numpy "
                          f"exposes no such kernel",
            })

    # -- 3. graph-check registry ↔ mechanical op surface ---------------
    registered = set(registered_op_names())
    for op in sorted(registered):
        target = OP_SURFACE.get(op)
        if target is None:
            issues.append({
                "kind": "unmapped-op", "name": op,
                "detail": f"graph-check op {op!r} has no OP_SURFACE "
                          f"entry tying it to the public API",
            })
            continue
        namespace, attr = target
        holder = {"tensor": Tensor, "autograd": _autograd,
                  "functional": _functional}[namespace]
        if not hasattr(holder, attr):
            issues.append({
                "kind": "stale-op", "name": op,
                "detail": f"graph-check op {op!r} maps to "
                          f"{namespace}.{attr}, which no longer exists",
            })
    for op in sorted(OP_SURFACE):
        if op not in registered:
            issues.append({
                "kind": "unchecked-op", "name": op,
                "detail": f"OP_SURFACE maps {op!r} but the graph-check "
                          f"registry has no double-backprop spec for it",
            })

    # Mechanical surface enumeration: every public op reachable from
    # repro.nn must be covered by some OP_SURFACE mapping.
    covered = {target for target in OP_SURFACE.values()}
    import inspect
    for attr, value in sorted(vars(Tensor).items()):
        if not inspect.isfunction(value):
            continue
        if attr in _TENSOR_INFRA or attr in _TENSOR_REFLECTED:
            continue
        if ("tensor", attr) not in covered:
            issues.append({
                "kind": "unregistered-op", "name": f"Tensor.{attr}",
                "detail": f"Tensor.{attr} is a public op with no "
                          f"graph-check registration (add an OpSpec "
                          f"and an OP_SURFACE entry)",
            })
    for name in sorted(set(_autograd.__all__) - _AUTOGRAD_INFRA):
        if ("autograd", name) not in covered:
            issues.append({
                "kind": "unregistered-op", "name": f"autograd.{name}",
                "detail": f"autograd.{name} is a public op with no "
                          f"graph-check registration",
            })
    for name in sorted(_functional.__all__):
        if ("functional", name) not in covered:
            issues.append({
                "kind": "unregistered-op", "name": f"functional.{name}",
                "detail": f"functional.{name} is a public op with no "
                          f"graph-check registration",
            })

    return {
        "kernels_launched": sorted(launches),
        "kernels_declared": sorted(declared_kernel_names()),
        "ops_registered": sorted(registered),
        "issues": issues,
    }
