"""Rule ``tape-purity``: compiled-step cores must not perform untaped
side effects.

A function handed to :func:`repro.nn.tape.compiled_step` or
:func:`repro.nn.tape.compiled_infer` is recorded
once per shape signature and then *replayed*: only the kernels that
went through the tape shims (``ka``/``k_gather``/``taped_draw``/the
``Tensor`` operators) re-execute on warm steps.  Any other side effect
in the core body — a raw in-place numpy write (``out=``, ``np.copyto``,
``np.add.at``), a random draw outside ``taped_draw`` (Python ``random``,
``np.random``, or a generator method), or I/O (``open``/``print``) —
runs on the recording step and then silently *stops happening* on every
replayed step, which is exactly the class of divergence-from-eager bug
the tape's bitwise-parity contract forbids.

Detection is lexical: the rule collects the function names registered
via ``compiled_step(<func>, ...)`` or ``compiled_infer(<func>, ...)``
in the module and checks those bodies.  Helpers called from a core
are the core's contract, not visible here.  Draws wrapped in a
``taped_draw(lambda: ...)`` closure are the sanctioned pattern and are
exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from .astutil import call_name, dotted_name, numpy_aliases, terminal_name
from .findings import Finding
from .rules import ModuleSource, Rule, register

__all__ = ["TapePurityRule"]

#: numpy functions that write through an argument (beyond ``out=``).
_NP_WRITERS = frozenset({"copyto", "put", "place", "putmask",
                         "fill_diagonal"})

#: generator draw methods (np.random.Generator surface used here).
_DRAW_METHODS = frozenset({
    "integers", "normal", "uniform", "choice", "random", "shuffle",
    "permutation", "standard_normal", "gumbel", "exponential",
    "binomial", "poisson", "beta", "gamma",
})

#: plain I/O callables that must not appear in a replayed region.
_IO_CALLS = frozenset({"open", "print"})


#: registration entry points whose first argument is a replayed core.
_COMPILERS = frozenset({"compiled_step", "compiled_infer"})


def _core_names(tree: ast.AST) -> Set[str]:
    """Function names registered as compiled cores in this module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                call_name(node) in _COMPILERS and node.args:
            target = terminal_name(node.args[0])
            if target:
                names.add(target)
    return names


class TapePurityRule(Rule):
    rule_id = "tape-purity"
    description = (
        "functions registered via compiled_step()/compiled_infer() are "
        "replayed from a recorded tape — raw numpy in-place writes (out=, "
        "np.copyto, ufunc .at), random draws outside taped_draw(), and "
        "I/O in the "
        "core body happen once at record time and never again on warm "
        "steps, breaking eager/taped parity"
    )

    def applies_to(self, path: str) -> bool:
        # The tape engine itself records via these primitives; only
        # consumer cores carry the purity contract.
        return "repro/nn/" not in path

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        cores = _core_names(module.tree)
        if not cores:
            return
        aliases = numpy_aliases(module.tree)
        parents: Dict[int, ast.AST] = {}
        for node in ast.walk(module.tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in cores:
                yield from self._check_core(module, node, aliases, parents)

    def _check_core(self, module: ModuleSource, func: ast.AST,
                    aliases, parents) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func) or ""
            root = dotted.split(".", 1)[0]

            # -- raw numpy in-place writes -----------------------------
            if root in aliases:
                if any(kw.arg == "out" for kw in node.keywords):
                    yield self.finding(module, node, (
                        "raw numpy write (out=) inside a compiled-step "
                        "core: replayed steps skip it — route the kernel "
                        "through the tape shims (ka/RECORDER.k) instead"
                    ))
                    continue
                terminal = terminal_name(node.func)
                if terminal in _NP_WRITERS or (
                        terminal == "at" and dotted.count(".") >= 2):
                    yield self.finding(module, node, (
                        f"in-place numpy call {dotted}() inside a "
                        "compiled-step core is invisible to the tape: "
                        "warm steps replay without it"
                    ))
                    continue
                if dotted.startswith(root + ".random"):
                    yield self.finding(module, node, (
                        "np.random draw inside a compiled-step core: "
                        "wrap it in taped_draw(lambda: ...) so replay "
                        "re-draws from the live generator"
                    ))
                    continue

            # -- Python RNG --------------------------------------------
            if dotted.startswith("random."):
                yield self.finding(module, node, (
                    "Python random draw inside a compiled-step core is "
                    "not replayed: wrap the draw in taped_draw()"
                ))
                continue
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _DRAW_METHODS:
                receiver = terminal_name(node.func.value) or ""
                if "rng" in receiver.lower() and \
                        not self._in_taped_draw(node, parents):
                    yield self.finding(module, node, (
                        f"generator draw .{node.func.attr}() inside a "
                        "compiled-step core must go through "
                        "taped_draw(lambda: ...) to re-draw on replay"
                    ))
                    continue

            # -- I/O ----------------------------------------------------
            if isinstance(node.func, ast.Name) and \
                    node.func.id in _IO_CALLS:
                yield self.finding(module, node, (
                    f"{node.func.id}() inside a compiled-step core runs "
                    "only at record time; move I/O outside the compiled "
                    "region"
                ))

    @staticmethod
    def _in_taped_draw(node: ast.AST, parents) -> bool:
        """True when the node sits inside a ``taped_draw(lambda: ...)``."""
        current = parents.get(id(node))
        while current is not None:
            if isinstance(current, ast.Lambda):
                owner = parents.get(id(current))
                if isinstance(owner, ast.Call) and \
                        call_name(owner) == "taped_draw":
                    return True
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            current = parents.get(id(current))
        return False


register(TapePurityRule)
