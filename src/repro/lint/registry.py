"""The rule base class and the global rule registry."""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.util.errors import LintError

__all__ = ["Rule", "all_rule_ids", "build_rules", "register"]

_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """One static check.

    Subclasses set the three class attributes and implement :meth:`check`,
    yielding a :class:`Diagnostic` per finding.  Register with::

        @register
        class MyRule(Rule):
            id = "my-rule"
            severity = Severity.ERROR
            description = "one line, shown by ``repro lint --list-rules``"
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def diag(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node``'s position."""
        return Diagnostic(
            rule=self.id,
            severity=severity or self.severity,
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if not cls.id:
        raise LintError(f"rule class {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise LintError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def _ensure_rules_loaded() -> None:
    # Importing the package registers every built-in rule exactly once.
    import repro.lint.rules  # noqa: F401


def all_rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    _ensure_rules_loaded()
    return sorted(_REGISTRY)


def build_rules(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the requested rules (all of them by default)."""
    _ensure_rules_loaded()
    if ids is None:
        ids = sorted(_REGISTRY)
    unknown = sorted(set(ids) - set(_REGISTRY))
    if unknown:
        raise LintError(
            f"unknown rule ids {unknown}; available: {sorted(_REGISTRY)}"
        )
    return [_REGISTRY[i]() for i in ids]
