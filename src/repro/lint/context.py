"""Per-run configuration and per-file context handed to rules."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet

__all__ = ["FileContext", "LintConfig"]


def _default_known_columns() -> FrozenSet[str]:
    from repro.tables.schema import known_columns

    return known_columns()


def _default_aggregators() -> FrozenSet[str]:
    from repro.tables.groupby import AGGREGATORS

    return frozenset(AGGREGATORS)


@dataclass(frozen=True)
class LintConfig:
    """Knobs shared by every rule in one lint run.

    Which files may do what directly is not a knob: it is the seam table
    in :mod:`repro.lint.seams`, which the flow pass reads as well.
    """

    known_columns: FrozenSet[str] = field(default_factory=_default_known_columns)
    aggregators: FrozenSet[str] = field(default_factory=_default_aggregators)


class FileContext:
    """One parsed source file plus everything a rule needs to inspect it."""

    def __init__(
        self,
        path: Path,
        relpath: str,
        source: str,
        tree: ast.AST,
        config: LintConfig,
    ):
        self.path = path
        self.relpath = relpath  # repo-relative posix path used in diagnostics
        self.source = source
        self.tree = tree
        self.config = config

    def matches(self, *suffixes: str) -> bool:
        """Whether this file's relpath ends with any of the given suffixes."""
        return any(self.relpath.endswith(s) for s in suffixes)

    def in_package(self, *prefixes: str) -> bool:
        """Whether this file lives under any of the given path fragments."""
        return any(p in self.relpath for p in prefixes)

