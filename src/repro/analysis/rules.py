"""Rule base class and registry for the static-analysis framework.

A rule inspects one parsed module at a time and yields
:class:`~repro.analysis.findings.Finding` objects.  Rules are pure
``ast`` consumers — no imports of the code under analysis — so they run
on any tree, including fixture snippets that would not import.

Registering is declarative::

    @register
    class MyRule(Rule):
        rule_id = "my-rule"
        description = "what invariant this guards"

        def check(self, module):
            yield from ...

Per-line suppression (``# repro: ignore[my-rule]``) and baselines are
applied by the walker, not by rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Type

from .findings import Finding

__all__ = ["ModuleSource", "Rule", "register", "all_rules", "get_rule",
           "rule_ids"]


@dataclass
class ModuleSource:
    """One parsed file handed to every rule."""

    path: str                    # repo-relative posix path
    text: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.lines:
            self.lines = self.text.splitlines()

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class: subclass, set ``rule_id``/``description``, implement
    :meth:`check`."""

    rule_id: str = ""
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Override to scope a rule to a subset of files."""
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    # Helper used by every concrete rule.
    def finding(self, module: ModuleSource, node: ast.AST,
                message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule_id=self.rule_id,
            path=module.path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=module.snippet(lineno),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default rule set."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id!r}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def _load_default_rules() -> None:
    """Import the rule modules so their ``@register`` decorators run."""
    if _REGISTRY:
        return
    from . import (  # noqa: F401  (imported for registration side effect)
        api_hygiene,
        determinism,
        numerics,
        shm_hygiene,
        tape_purity,
        task_fields,
    )


def all_rules() -> List[Rule]:
    """Instantiate one of every registered rule."""
    _load_default_rules()
    return [cls() for cls in _REGISTRY.values()]


def get_rule(rule_id: str) -> Rule:
    _load_default_rules()
    return _REGISTRY[rule_id]()


def rule_ids() -> List[str]:
    _load_default_rules()
    return sorted(_REGISTRY)
