"""``unsafe-artifact-write``: on-disk writes go through ``repro.storage``.

A bare ``open(path, "w")`` is how torn files happen: no temp file, no
fsync, no atomic rename, no checksum — a crash mid-write leaves a partial
artifact the next run happily parses.  ``docs/ROBUSTNESS.md`` makes
:mod:`repro.storage` the single sanctioned writer, and this rule is the
enforcement: outside ``repro/storage/`` it flags

* any builtin ``open(...)`` call whose mode literal can create or mutate
  a file (contains ``w``, ``a``, ``x`` or ``+``);
* any ``.write_text(...)`` / ``.write_bytes(...)`` method call (the
  pathlib spelling of the same unprotected write).

Read-only opens (``"r"``, ``"rb"``, or no mode) stay legal — although
:func:`repro.storage.read_text_verified` is what checksum-guarded
artifacts deserve.  Route writes through ``storage.commit_text`` /
``commit_bytes`` / ``commit_json`` / ``append_text`` instead; genuinely
exempt call sites (e.g. a chaos shim that *is* the write path) carry a
``# repro-lint: disable=unsafe-artifact-write`` comment.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import Rule, register
from repro.lint.seams import (
    WRITE_METHODS,
    WRITE_MODE_CHARS,
    allowed,
    mode_literal,
)

__all__ = ["UnsafeArtifactWriteRule"]


@register
class UnsafeArtifactWriteRule(Rule):
    id = "unsafe-artifact-write"
    severity = Severity.ERROR
    description = (
        "bare open(..., 'w'/'a') or pathlib .write_text/.write_bytes outside "
        "repro/storage/ — no atomic rename, fsync, or checksum; commit "
        "through repro.storage instead"
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        if allowed(ctx.relpath, "filesystem-write"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_open(ctx, node)
                yield from self._check_write_method(ctx, node)

    def _check_open(self, ctx: FileContext, node: ast.Call) -> Iterator[Diagnostic]:
        if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
            return
        mode = mode_literal(node)
        if mode is None or not (WRITE_MODE_CHARS & set(mode)):
            return
        yield self.diag(
            ctx,
            node,
            f"bare open(..., {mode!r}) writes without atomic rename, fsync, "
            f"or checksum; commit through repro.storage "
            f"(commit_text/commit_bytes/append_text)",
        )

    def _check_write_method(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Diagnostic]:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in WRITE_METHODS
        ):
            return
        yield self.diag(
            ctx,
            node,
            f".{node.func.attr}(...) writes without atomic rename, fsync, or "
            f"checksum; commit through repro.storage "
            f"(commit_text/commit_bytes)",
        )
