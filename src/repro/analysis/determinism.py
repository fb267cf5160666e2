"""Rule ``determinism``: RNGs must be explicit, seeded Generators.

The runtime's bit-identical-backends contract (serial ==
multiprocessing == remote, see ``repro.runtime.executor``) holds only if
every random draw flows from an explicit ``np.random.Generator`` whose
seed is derived from config — e.g. the ``(seed, round, chunk)``
derivation in ``NetShare.generate``.  Three things silently break it:

* the legacy global-state numpy API (``np.random.rand()`` and friends,
  ``np.random.seed``, ``np.random.RandomState``) — draws depend on
  process-global call order, which differs per backend and per worker;
* the stdlib ``random`` module — same global state, plus per-process
  hash randomisation;
* wall-clock entropy: ``time.time()``-seeded paths and the unseeded
  ``np.random.default_rng()``, which pulls OS entropy.

``time.perf_counter``/``monotonic`` (duration measurement, never fed
to an RNG) stay allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .astutil import dotted_name, numpy_aliases
from .findings import Finding
from .rules import ModuleSource, Rule, register

__all__ = ["DeterminismRule", "LEGACY_NP_RANDOM"]

#: Module-level functions of the legacy numpy RNG (global hidden state).
LEGACY_NP_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "seed", "get_state", "set_state", "bytes",
    "beta", "binomial", "exponential", "gamma", "geometric", "gumbel",
    "laplace", "logistic", "lognormal", "poisson", "power", "rayleigh",
    "RandomState",
})

#: Wall-clock calls that must never feed a seed (or appear at all in
#: logic paths; use perf_counter for durations).
_CLOCK_CALLS = frozenset({"time.time", "time.time_ns"})


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "DeterminismRule", module: ModuleSource):
        self.rule = rule
        self.module = module
        self.findings = []
        self.np_names: Set[str] = set(numpy_aliases(module.tree))
        self.random_aliases: Set[str] = set()
        self.random_from_names: Set[str] = set()
        self._collect_random_imports(module.tree)

    def _collect_random_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        self.random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    for alias in node.names:
                        self.random_from_names.add(alias.asname or alias.name)

    def _emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.module, node, message))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if name:
            head, _, tail = name.rpartition(".")
            if (tail in LEGACY_NP_RANDOM
                    and head in {f"{np}.random" for np in self.np_names}):
                self._emit(node, (
                    f"global-state RNG `{name}`: draws depend on process-"
                    "global call order, breaking the bit-identical-backends "
                    "contract; thread a seeded np.random.Generator instead"
                ))
            elif name in _CLOCK_CALLS:
                self._emit(node, (
                    f"wall-clock `{name}` in library code: clock-derived "
                    "values are not reproducible; derive seeds from config "
                    "and measure durations with time.perf_counter"
                ))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            head, _, tail = name.rpartition(".")
            if (tail == "default_rng" and not node.args and not node.keywords
                    and head in {f"{np}.random" for np in self.np_names}):
                self._emit(node, (
                    "unseeded np.random.default_rng(): pulls OS entropy, so "
                    "every run differs; pass an explicit seed derived from "
                    "config (e.g. the (seed, round, chunk) scheme)"
                ))
            if name.partition(".")[0] in self.random_aliases and "." in name:
                self._emit(node, (
                    f"stdlib `{name}`: the random module keeps global "
                    "state; use a seeded np.random.Generator"
                ))
            if name in self.random_from_names and "." not in name:
                self._emit(node, (
                    f"stdlib random.{name}: the random module keeps global "
                    "state; use a seeded np.random.Generator"
                ))
        self.generic_visit(node)


@register
class DeterminismRule(Rule):
    rule_id = "determinism"
    description = (
        "no global-state np.random.* / stdlib random / wall-clock-seeded "
        "paths; RNGs must be explicit seeded Generators"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        yield from visitor.findings
