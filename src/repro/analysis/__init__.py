"""Static analysis enforcing the runtime's correctness conventions.

PRs 1–2 built a parallel runtime whose guarantees are conventions:
bit-identical backends need every RNG seeded and threaded explicitly,
the process pool needs every ``SharedArena`` scope-managed and every
task payload stateless, and WGAN-GP training needs every ``repro.nn``
backward differentiable for the gradient penalty.  This package makes
those conventions *checked*:

* an AST rule framework (:mod:`~repro.analysis.rules`) with per-line
  suppressions and a committed baseline — pure stdlib, no imports of
  the code under analysis;
* five rules grounded in this codebase: ``determinism``,
  ``shm-hygiene``, ``task-statelessness``, ``numerical-stability``,
  ``api-hygiene``;
* a semantic double-backprop checker (:mod:`~repro.analysis.graph_check`)
  that builds each ``repro.nn`` op's grad-of-grad graph on tiny
  tensors and compares against finite differences;
* a CLI (``python -m repro.analysis``) that gates CI.

See DESIGN.md §"Enforced invariants" for the rule-by-rule rationale.
"""

from .baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    baseline_counts,
    load_baseline,
    save_baseline,
)
from .cli import main
from .findings import Finding, findings_from_json, findings_to_json
from .graph_check import (
    OpReport,
    OpSpec,
    check_double_backprop,
    check_op,
    get_op_spec,
    register_op,
    registered_op_names,
    unregister_op,
)
from .rules import ModuleSource, Rule, all_rules, get_rule, register, rule_ids
from .walker import (
    EXCLUDED_DIRS,
    check_paths,
    check_source,
    iter_python_files,
    parse_suppressions,
)

__all__ = [
    "Finding", "findings_to_json", "findings_from_json",
    "ModuleSource", "Rule", "register", "all_rules", "get_rule",
    "rule_ids",
    "check_paths", "check_source", "iter_python_files",
    "parse_suppressions", "EXCLUDED_DIRS",
    "DEFAULT_BASELINE", "load_baseline", "save_baseline",
    "apply_baseline", "baseline_counts",
    "OpSpec", "OpReport", "register_op", "unregister_op",
    "registered_op_names", "get_op_spec", "check_op",
    "check_double_backprop",
    "main",
]
