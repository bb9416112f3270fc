"""``typed-errors``: library errors use the util/errors.py hierarchy.

The CLI's exit-code contract (1/3/4/5) and the runtime's degradation logic
both catch :class:`repro.util.errors.ReproError`; an untyped ``raise
RuntimeError`` escapes as a traceback instead of a report line.  This rule
flags, everywhere in ``src/repro``:

* bare ``except:`` handlers (swallow ``KeyboardInterrupt`` and typed errors
  alike),
* raising generic builtins (``Exception``, ``RuntimeError``, ``KeyError``,
  ``OSError``, ...).

Per the documented convention in ``util/errors.py``, ``ValueError`` /
``TypeError`` / ``IndexError`` for *argument validation and index protocols*
stay allowed — except inside the strict packages (``analysis/``,
``runtime/``), which have dedicated typed errors (``AnalysisError``,
``PipelineError``) that run reports depend on.  The strict packages may not
catch ``Exception`` or ``BaseException`` either (alone or in a tuple): an
analysis catches the typed error it expects and lets anything else fail
its experiment in the runtime, which records the traceback and exits 4.
The runtime's own catch-all sites say why inline.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import Rule, register

__all__ = ["TypedErrorsRule"]

#: Builtins whose raise is a finding anywhere in the library.
_ALWAYS_FLAGGED = frozenset(
    {
        "Exception",
        "BaseException",
        "RuntimeError",
        "KeyError",
        "OSError",
        "IOError",
        "ArithmeticError",
    }
)
#: Additionally flagged inside the strict packages.
_STRICT_FLAGGED = frozenset({"ValueError", "TypeError", "IndexError"})

#: Catch-alls flagged inside the strict packages.
_BROAD_CATCHES = frozenset({"Exception", "BaseException"})

#: Subpackages where the :data:`_STRICT_FLAGGED` raises and the
#: :data:`_BROAD_CATCHES` handlers are findings too: they have dedicated
#: typed errors (``AnalysisError``, ``PipelineError``) that run reports and
#: exit codes depend on.
_STRICT_PACKAGES = ("repro/analysis/", "repro/runtime/")


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return None


def _broad_catch(handler: ast.ExceptHandler) -> Optional[str]:
    """The catch-all a handler names, alone or in a tuple, or None."""
    caught = handler.type
    for exc in caught.elts if isinstance(caught, ast.Tuple) else (caught,):
        if isinstance(exc, ast.Name) and exc.id in _BROAD_CATCHES:
            return exc.id
    return None


@register
class TypedErrorsRule(Rule):
    id = "typed-errors"
    severity = Severity.ERROR
    description = (
        "raise errors from the util/errors.py hierarchy (no generic builtins, "
        "no bare except)"
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        strict = ctx.in_package(*_STRICT_PACKAGES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node, strict)
            elif isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node, strict)

    def _check_handler(
        self, ctx: FileContext, node: ast.ExceptHandler, strict: bool
    ) -> Iterator[Diagnostic]:
        if node.type is None:
            yield self.diag(
                ctx,
                node,
                "bare 'except:' swallows everything (even "
                "KeyboardInterrupt); catch ReproError or a specific type",
            )
            return
        caught = _broad_catch(node) if strict else None
        if caught is not None:
            yield self.diag(
                ctx,
                node,
                f"'except {caught}' inside a strict package hides any failure "
                f"from the run report; catch the typed error you expect and "
                f"let the rest fail its stage",
            )

    def _check_raise(
        self, ctx: FileContext, node: ast.Raise, strict: bool
    ) -> Iterator[Diagnostic]:
        name = _raised_name(node)
        if name is None:
            return
        if name in _ALWAYS_FLAGGED:
            yield self.diag(
                ctx,
                node,
                f"raise of generic builtin {name}; use a typed error from "
                f"util/errors.py so callers can catch ReproError",
            )
        elif strict and name in _STRICT_FLAGGED:
            yield self.diag(
                ctx,
                node,
                f"raise of builtin {name} inside a strict package; use "
                f"AnalysisError/PipelineError so the run report and exit "
                f"codes see it",
            )
