"""``schema-columns``: column-name string literals must be declared.

Cross-references every string literal at a table call site — ``col("x")``,
the expression-AST leaf constructors (``Comparison``/``IsIn``/``IsNull``),
``.column/select/group_by/sort_by/drop/with_column/rename(...)`` and the
source/aggregator slots of ``.aggregate({out: (src, how)})`` — against
:func:`repro.tables.schema.known_columns`.  Lazy chains need no special
casing: ``ast.walk`` reaches a ``col("tput_mbps")`` nested inside
``t.lazy().filter(...)`` exactly as it does the eager spelling.  A typo'd ``"MeanTput "`` (the
trailing-space kind that silently empties a BigQuery-style extract) becomes a
lint error instead of a corrupted result.

String subscripts (``row["min_rtt_ms"]``) also index plain dicts, so they get
a *near-miss* check only: flagged when the literal is a whitespace/case
variant of a declared column but not exactly one.

Files listed in :data:`_EXEMPT_FILES` (the bench micro suite, whose tables
are synthetic by design) are skipped entirely.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import Rule, register

__all__ = ["SchemaColumnsRule"]

#: Table methods whose first argument names existing columns to read.
_READ_METHODS = ("column", "group_by", "select", "sort_by", "drop")
#: Table methods whose string arguments introduce or rename columns; those
#: names must also be declared (``DERIVED_COLUMNS``) so every column the
#: pipeline can produce is registered in one place.
_WRITE_METHODS = ("with_column", "rename")
#: Expression-AST leaf constructors whose first argument is a column name.
#: ``col("x")`` is the idiomatic spelling, but the node classes are public
#: (``repro.tables.expr``), so a typo'd column inside a directly built
#: ``Comparison``/``IsIn``/``IsNull`` — e.g. deep in a lazy chain — must be
#: caught the same way.
_EXPR_LEAVES = ("Comparison", "IsIn", "IsNull")
#: Files whose table column names are synthetic by design (the bench micro
#: suite builds throwaway tables), so the cross-reference does not apply.
_EXEMPT_FILES = ("repro/obs/bench.py",)


def _string_args(node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Yield (node, value) for a str literal or a list/tuple of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node, node.value
    elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                yield element, element.value


def _normalize(name: str) -> str:
    return name.strip().lower().replace(" ", "_").replace("-", "_")


@register
class SchemaColumnsRule(Rule):
    id = "schema-columns"
    severity = Severity.ERROR
    description = (
        "column-name string literals at table call sites must appear in "
        "tables/schema.py (NDT/trace schemas or DERIVED_COLUMNS)"
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        known = ctx.config.known_columns
        if not known or ctx.matches(*_EXEMPT_FILES):
            return
        normalized = {_normalize(k): k for k in known}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, known)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(ctx, node, known, normalized)

    # -- call sites ---------------------------------------------------------
    def _check_call(
        self, ctx: FileContext, call: ast.Call, known
    ) -> Iterator[Diagnostic]:
        func = call.func
        # ``col("x")`` and the expression-AST leaves name columns in their
        # first argument whether called bare or via an attribute path
        # (``expr.col`` / ``expr.Comparison``); lazy chains nest these
        # inside .filter(...) calls, which ast.walk reaches the same way.
        callee = None
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        if callee == "col" and call.args:
            yield from self._check_names(ctx, _string_args(call.args[0]), known, "col()")
            return
        if callee in _EXPR_LEAVES and call.args:
            yield from self._check_names(
                ctx, _string_args(call.args[0]), known, f"{callee}()"
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        if method in _READ_METHODS and call.args:
            yield from self._check_names(
                ctx, _string_args(call.args[0]), known, f".{method}()"
            )
        elif method == "with_column" and call.args:
            yield from self._check_names(
                ctx, _string_args(call.args[0]), known, ".with_column()"
            )
        elif method == "rename" and call.args:
            yield from self._check_rename(ctx, call.args[0], known)
        elif method == "aggregate" and call.args:
            yield from self._check_aggregate(ctx, call.args[0], known)

    def _check_names(
        self,
        ctx: FileContext,
        names: Iterable[Tuple[ast.AST, str]],
        known,
        where: str,
    ) -> Iterator[Diagnostic]:
        for node, value in names:
            if value not in known:
                yield self.diag(
                    ctx,
                    node,
                    f"unknown column {value!r} passed to {where}; declare it "
                    f"in tables/schema.py or fix the typo",
                )

    def _check_rename(
        self, ctx: FileContext, arg: ast.AST, known
    ) -> Iterator[Diagnostic]:
        if not isinstance(arg, ast.Dict):
            return
        for key, value in zip(arg.keys, arg.values):
            for node, name in _string_args(key) if key is not None else ():
                if name not in known:
                    yield self.diag(
                        ctx, node, f"rename of unknown column {name!r}"
                    )
            for node, name in _string_args(value):
                if name not in known:
                    yield self.diag(
                        ctx,
                        node,
                        f"rename target {name!r} is not a declared column; "
                        f"add it to DERIVED_COLUMNS in tables/schema.py",
                    )

    def _check_aggregate(
        self, ctx: FileContext, arg: ast.AST, known
    ) -> Iterator[Diagnostic]:
        if not isinstance(arg, ast.Dict):
            return
        aggregators = ctx.config.aggregators
        for key, value in zip(arg.keys, arg.values):
            if key is not None:
                for node, name in _string_args(key):
                    if name not in known:
                        yield self.diag(
                            ctx,
                            node,
                            f"aggregate output {name!r} is not a declared "
                            f"column; add it to DERIVED_COLUMNS in "
                            f"tables/schema.py",
                        )
            if isinstance(value, ast.Tuple) and len(value.elts) == 2:
                src, how = value.elts
                for node, name in _string_args(src):
                    if name not in known:
                        yield self.diag(
                            ctx, node, f"aggregate over unknown column {name!r}"
                        )
                for node, name in _string_args(how):
                    if aggregators and name not in aggregators:
                        yield self.diag(
                            ctx,
                            node,
                            f"unknown aggregator {name!r}; "
                            f"see tables.groupby.AGGREGATORS",
                        )

    # -- subscripts: near-miss (typo) detection only ------------------------
    def _check_subscript(
        self, ctx: FileContext, node: ast.Subscript, known, normalized
    ) -> Iterator[Diagnostic]:
        sub = node.slice
        # py3.8 wraps the subscript in ast.Index; unwrap if present.
        if sub.__class__.__name__ == "Index":
            sub = sub.value  # pragma: no cover - py<3.9 only
        if not (isinstance(sub, ast.Constant) and isinstance(sub.value, str)):
            return
        value = sub.value
        if value in known:
            return
        canonical = normalized.get(_normalize(value))
        if canonical is not None:
            yield self.diag(
                ctx,
                sub,
                f"subscript {value!r} looks like a typo of declared column "
                f"{canonical!r}",
            )
