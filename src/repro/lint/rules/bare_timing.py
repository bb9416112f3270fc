"""``no-bare-timing``: clock reads go through ``repro.obs``.

Scattered ``time.time()`` / ``time.perf_counter()`` calls are how ad-hoc
timing creeps back in after an observability layer exists: the readings
never reach the trace, the metrics registry, or the run report, and tests
cannot substitute a fake clock.  Outside ``repro/obs/`` (home of the one
sanctioned shim, :mod:`repro.obs.clock`) and ``benchmarks/`` this rule
flags

* any use — call or bare reference — of ``time.time``,
  ``time.perf_counter``, ``time.monotonic``, ``time.process_time`` or
  their ``_ns`` variants,
* ``from time import perf_counter``-style imports of those names (the
  later call sites would otherwise hide behind a bare name).

``time.sleep`` and plain ``import time`` stay legal: sleeping is not
timing, and the module import is how ``sleep`` arrives.  Measure with
``obs.span(...)``/``@obs.traced`` and read clocks via
``repro.obs.clock.monotonic``.

The rule also guards the downstream sink of ad-hoc timing: ``BENCH_*``
artifact filenames (``BENCH_engine.json``-style literals) anywhere except
the sanctioned writer, :mod:`repro.obs.bench`.  One-off baseline files are
how timing data escapes the benchmark registry — route snapshots through
``repro.obs.bench.write_snapshot`` and history through
``repro bench record``.  Docstrings may of course *mention* the files.

Raw *profiling* machinery gets the same treatment: ``import tracemalloc``
(or any ``tracemalloc.*`` use) and ``sys._current_frames`` outside
``repro/obs/profile/`` and ``benchmarks/`` are findings.  Ad-hoc
profilers have all the problems of ad-hoc timing plus global side effects
(``tracemalloc.start()`` is process-wide); profile through ``--profile``
/ :mod:`repro.obs.profile` instead.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, Set

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import Rule, register
from repro.lint.seams import CLOCK_READS, allowed

__all__ = ["BareTimingRule"]

#: The one file allowed to name ``BENCH_*.json`` artifacts in code: the
#: sanctioned snapshot/history writer.  Everyone else goes through it, so
#: ad-hoc baseline files cannot reappear outside the registry.
_BENCH_WRITER_FILES = ("repro/obs/bench.py",)

#: A string literal that names a benchmark artifact file.
_BENCH_ARTIFACT = re.compile(r"BENCH_\w+\.jsonl?$")


def _docstring_nodes(tree: ast.AST) -> Set[int]:
    """ids of Constant nodes that are module/class/function docstrings."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


@register
class BareTimingRule(Rule):
    id = "no-bare-timing"
    severity = Severity.ERROR
    description = (
        "direct time.time()/time.perf_counter() use outside repro/obs/ and "
        "benchmarks/ (use obs.span or repro.obs.clock), BENCH_* artifact "
        "filenames outside repro/obs/bench.py (use the benchmark registry), "
        "and raw profiling machinery (tracemalloc, sys._current_frames) "
        "outside repro/obs/profile/ (use --profile / repro.obs.profile)"
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        timing_exempt = allowed(ctx.relpath, "reads-clock")
        profiling_exempt = allowed(ctx.relpath, "profiling")
        bench_exempt = ctx.matches(*_BENCH_WRITER_FILES)
        docstrings = (
            _docstring_nodes(ctx.tree) if not bench_exempt else set()
        )
        for node in ast.walk(ctx.tree):
            if not timing_exempt:
                if isinstance(node, ast.ImportFrom):
                    yield from self._check_import_from(ctx, node)
                elif isinstance(node, ast.Attribute):
                    yield from self._check_attribute(ctx, node)
            if not profiling_exempt:
                yield from self._check_profiling(ctx, node)
            if not bench_exempt:
                yield from self._check_bench_literal(ctx, node, docstrings)

    def _check_import_from(
        self, ctx: FileContext, node: ast.ImportFrom
    ) -> Iterator[Diagnostic]:
        if node.module != "time":
            return
        for alias in node.names:
            if alias.name in CLOCK_READS:
                yield self.diag(
                    ctx,
                    node,
                    f"import of time.{alias.name} hides a clock read behind "
                    f"a bare name; use repro.obs.clock instead",
                )

    def _check_attribute(
        self, ctx: FileContext, node: ast.Attribute
    ) -> Iterator[Diagnostic]:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in CLOCK_READS
        ):
            yield self.diag(
                ctx,
                node,
                f"bare time.{node.attr} bypasses the obs layer; time blocks "
                f"with obs.span(...) or read repro.obs.clock.monotonic",
            )

    def _check_profiling(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Diagnostic]:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            names = [a.name for a in node.names]
            if module == "tracemalloc" or "tracemalloc" in names or (
                module is not None and module.startswith("tracemalloc.")
            ) or any(n.startswith("tracemalloc.") for n in names):
                yield self.diag(
                    ctx,
                    node,
                    "ad-hoc tracemalloc use outside the profiler seam; "
                    "allocation profiling goes through --profile / "
                    "repro.obs.profile",
                )
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "sys"
                and node.attr == "_current_frames"
            ):
                yield self.diag(
                    ctx,
                    node,
                    "sys._current_frames outside the profiler seam; stack "
                    "sampling goes through --profile / repro.obs.profile",
                )

    def _check_bench_literal(
        self, ctx: FileContext, node: ast.AST, docstrings: Set[int]
    ) -> Iterator[Diagnostic]:
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _BENCH_ARTIFACT.search(node.value)
        ):
            yield self.diag(
                ctx,
                node,
                f"BENCH artifact name {node.value!r} outside the sanctioned "
                f"writer; go through repro.obs.bench (write_snapshot / "
                f"repro bench record)",
            )
