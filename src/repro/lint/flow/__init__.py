"""``repro.lint.flow`` — whole-program dataflow analysis over ``src/repro``.

The per-file rules in :mod:`repro.lint.rules` see one AST at a time; this
package sees all of them at once.  It builds a project-wide symbol table
and call graph, infers a per-function *effect set* (rng, clock reads,
filesystem writes, global mutation, network) and propagates it
transitively through calls, then verifies two runtime contracts against
the result:

* every ``Stage.fn`` body's ``context[...]`` reads must match the stage's
  declared ``inputs`` — the declarations :mod:`repro.obs.lineage` turns
  into ``provenance.json`` edges, so a drifted declaration is silently
  wrong provenance;
* functions reachable from ``tables/kernels.py`` and ``stats/`` must be
  effect-free except via the sanctioned seams of
  :mod:`repro.lint.seams` (``util/rng.py``, the ``obs/`` clock shim,
  ``storage/``), so a kernel's result depends on its inputs alone.

Pipeline: :func:`summarize_source` distils one file into a cacheable
:class:`ModuleSummary`; :class:`Project` links summaries into a symbol
table + call graph; :func:`infer_effects` runs the lattice fixpoint;
:func:`check_contracts` / :func:`check_kernel_purity` emit diagnostics
through the ordinary baseline/suppression machinery; and
:func:`build_effects_report` renders the machine-readable
``effects.json`` (schema: ``docs/effects.schema.json``).

Entry point: :func:`repro.lint.flow.analyzer.analyze_paths`, wired into
``repro lint --flow``.  See docs/LINT.md ("Whole-program flow analysis").
"""

from repro.lint.flow.analyzer import FlowResult, analyze_paths
from repro.lint.flow.callgraph import Project
from repro.lint.flow.contracts import check_contracts
from repro.lint.flow.effects import (
    EFFECTS,
    EffectAnalysis,
    check_kernel_purity,
    infer_effects,
)
from repro.lint.flow.report import build_effects_report, write_effects_report
from repro.lint.flow.summarize import FunctionInfo, ModuleSummary, summarize_source

__all__ = [
    "EFFECTS",
    "EffectAnalysis",
    "FlowResult",
    "FunctionInfo",
    "ModuleSummary",
    "Project",
    "analyze_paths",
    "build_effects_report",
    "check_contracts",
    "check_kernel_purity",
    "infer_effects",
    "summarize_source",
    "write_effects_report",
]
