"""The machine-readable ``effects.json`` report and the explain view.

``effects.json`` is to the flow pass what ``provenance.json`` is to
lineage: a schema-validated artifact (``docs/effects.schema.json``)
downstream tooling can gate on, written only when ``repro lint --flow
--effects-out PATH`` asks for it.  ``repro lint effects <function>``
renders the same data for humans, with witness call chains explaining
where each effect comes from.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro import storage
from repro.lint.flow.effects import EFFECTS, EffectAnalysis
from repro.lint.seams import seam_of
from repro.util.errors import LintError

__all__ = [
    "EFFECTS_SCHEMA_VERSION",
    "build_effects_report",
    "render_effects_explain",
    "validate_effects_report",
    "write_effects_report",
]

EFFECTS_SCHEMA_VERSION = 2


def build_effects_report(
    analysis: EffectAnalysis, contract_findings: int = 0
) -> Dict[str, Any]:
    """Assemble the JSON-ready effects report (deterministic key order)."""
    assert analysis.project is not None
    project = analysis.project
    functions: List[Dict[str, Any]] = []
    n_pure = 0
    n_with_effects = 0
    for qual in sorted(project.functions):
        info = project.functions[qual]
        raw = sorted(
            analysis.effects_of(qual), key=EFFECTS.index
        )
        seams = sorted(analysis.sanctioned_of(qual))
        if raw:
            n_with_effects += 1
        elif not seams:
            n_pure += 1
        functions.append(
            {
                "qualname": qual,
                "path": info.relpath,
                "line": info.line,
                "effects": raw,
                "sanctioned": seams,
                "seam": seam_of(info.relpath),
                "n_callees": len(project.callees_of(qual)),
                "n_callers": len(project.callers_of(qual)),
            }
        )
    return {
        "schema_version": EFFECTS_SCHEMA_VERSION,
        "effect_alphabet": list(EFFECTS),
        "summary": {
            "functions": len(functions),
            "pure": n_pure,
            "with_effects": n_with_effects,
            "stage_sites": len(project.stage_sites()),
            "contract_findings": contract_findings,
        },
        "functions": functions,
    }


def validate_effects_report(data: Dict[str, Any]) -> List[str]:
    """Schema-validate a report dict; returns human-readable violations."""
    from repro.obs.report import load_schema, validate_against_schema

    return validate_against_schema(data, load_schema("effects.schema.json"))


def write_effects_report(data: Dict[str, Any], path) -> str:
    """Validate then atomically commit ``effects.json``; returns the path."""
    errors = validate_effects_report(data)
    if errors:
        raise LintError(
            "effects report violates docs/effects.schema.json: "
            + "; ".join(errors[:5])
        )
    rendered = json.dumps(data, indent=2, sort_keys=True) + "\n"
    storage.commit_text(str(path), rendered, label="lint.effects")
    return str(path)


def render_effects_explain(analysis: EffectAnalysis, needle: str) -> str:
    """Human-readable effect explanation for ``repro lint effects <fn>``."""
    assert analysis.project is not None
    project = analysis.project
    matches = project.find_function(needle)
    if not matches:
        return f"no function matching {needle!r} in the analyzed tree"
    lines: List[str] = []
    if len(matches) > 1:
        lines.append(
            f"{needle!r} is ambiguous ({len(matches)} matches); "
            f"showing all:"
        )
    for info in matches:
        qual = info.qualname
        raw = sorted(analysis.effects_of(qual), key=EFFECTS.index)
        seams = sorted(analysis.sanctioned_of(qual))
        lines.append(f"{qual}  ({info.relpath}:{info.line})")
        lines.append(
            "  effects:    " + (", ".join(raw) if raw else "(pure)")
        )
        lines.append(
            "  sanctioned: " + (", ".join(seams) if seams else "(none)")
        )
        for effect in raw:
            chain = analysis.witness_path(qual, effect)
            if chain:
                shown = " -> ".join(q.split(".")[-1] for q, _ in chain)
                terminal = chain[-1][1]
                detail = f" [{terminal.detail}]" if terminal else ""
                lines.append(f"    {effect}: {shown}{detail}")
        callees = project.callees_of(qual)
        callers = project.callers_of(qual)
        lines.append(
            f"  calls {len(callees)} project function(s); "
            f"called by {len(callers)}"
        )
    return "\n".join(lines)
