"""``unseeded-random``: all randomness flows through the seeded RngHub.

Reproducibility is the whole point of the synthetic substrate: one stray
``np.random.uniform()`` (module-level global state) or ``import random``
makes runs diverge silently.  Outside ``util/rng.py``, this rule flags

* any import of the stdlib ``random`` module,
* any call on ``np.random``/``numpy.random`` *except* explicit seeded
  construction (``Generator``, ``PCG64``, ``SeedSequence``) — so
  ``np.random.default_rng()``, ``np.random.seed(...)`` and every module-level
  distribution call are findings.

Passing an ``np.random.Generator`` around (the repo-wide convention) is
untouched: annotations and ``rng.uniform(...)`` calls never match.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import Rule, register
from repro.lint.seams import SEEDED_CONSTRUCTORS, allowed, dotted_name

__all__ = ["UnseededRandomRule"]


@register
class UnseededRandomRule(Rule):
    id = "unseeded-random"
    severity = Severity.ERROR
    description = (
        "direct random.*/np.random.* use outside util/rng.py; draw from a "
        "seeded RngHub stream instead"
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        if allowed(ctx.relpath, "rng"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_import(self, ctx: FileContext, node: ast.Import) -> Iterator[Diagnostic]:
        for alias in node.names:
            top = alias.name.split(".")[0]
            if top == "random":
                yield self.diag(
                    ctx,
                    node,
                    "import of stdlib 'random' (unseedable global state); "
                    "use util.rng.RngHub",
                )

    def _check_import_from(
        self, ctx: FileContext, node: ast.ImportFrom
    ) -> Iterator[Diagnostic]:
        if node.module and node.module.split(".")[0] == "random":
            yield self.diag(
                ctx,
                node,
                "import from stdlib 'random' (unseedable global state); "
                "use util.rng.RngHub",
            )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Diagnostic]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if parts[0] == "random" and len(parts) == 2:
            yield self.diag(
                ctx,
                node,
                f"call to stdlib {name}() uses unseeded global state; "
                f"draw from an RngHub stream",
            )
        elif (
            len(parts) >= 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] not in SEEDED_CONSTRUCTORS
        ):
            yield self.diag(
                ctx,
                node,
                f"call to {name}() bypasses the seeded RngHub; global "
                f"numpy randomness is unreproducible",
            )
