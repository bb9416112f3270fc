"""``forbidden-import``: no pandas, no network modules.

The reproduction is a closed system: its own columnar engine instead of
pandas, and a synthetic substrate instead of live M-Lab queries.  An import
of pandas or any network module is always a mistake here (and would break
the no-new-dependency CI environment).  One carve-out: where the seam
table (:mod:`repro.lint.seams`) allows ``network`` — the live health
service and the benchmarks that load-test it — the network modules, and
only those, may be imported.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import Rule, register
from repro.lint.seams import NETWORK_MODULES, allowed

__all__ = ["ForbiddenImportRule"]

#: Top-level module → why importing it anywhere is a finding.
_FORBIDDEN_IMPORTS = {
    "pandas": "use repro.tables instead of pandas",
    **{
        name: "the reproduction must not touch the network"
        for name in NETWORK_MODULES
    },
}


@register
class ForbiddenImportRule(Rule):
    id = "forbidden-import"
    severity = Severity.ERROR
    description = "imports of pandas / network modules are not allowed"

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        in_network_seam = allowed(ctx.relpath, "network")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _FORBIDDEN_IMPORTS and not (
                        in_network_seam and top in NETWORK_MODULES
                    ):
                        yield self.diag(
                            ctx,
                            node,
                            f"forbidden import {alias.name!r}: "
                            f"{_FORBIDDEN_IMPORTS[top]}",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                top = node.module.split(".")[0]
                if (
                    node.level == 0
                    and top in _FORBIDDEN_IMPORTS
                    and not (in_network_seam and top in NETWORK_MODULES)
                ):
                    yield self.diag(
                        ctx,
                        node,
                        f"forbidden import {node.module!r}: "
                        f"{_FORBIDDEN_IMPORTS[top]}",
                    )
