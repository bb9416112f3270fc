"""Render a :class:`LintRun` as human text or machine-readable JSON."""

from __future__ import annotations

import json
from typing import Dict

from repro.lint.engine import LintRun

__all__ = ["render_json", "render_text"]


def render_text(run: LintRun, verbose: bool = False) -> str:
    """The default terminal report: new findings, then a one-line summary."""
    lines = [d.format() for d in run.new]
    if verbose and run.suppressed_by_baseline:
        lines.append("")
        lines.append("baselined findings (not counted against the gate):")
        lines.extend(
            f"  {d.format()}" for d in run.diagnostics if d not in set(run.new)
        )
    summary = (
        f"{run.files_checked} files checked, {len(run.rule_ids)} rules: "
        f"{len(run.new)} new finding{'s' if len(run.new) != 1 else ''}"
    )
    if run.suppressed_by_baseline:
        summary += f" ({run.suppressed_by_baseline} baselined)"
    lines.append(summary)
    if run.flow_summary:
        fs = run.flow_summary
        lines.append(
            f"flow: {fs.get('functions', 0)} functions analyzed, "
            f"{fs.get('stage_sites', 0)} stage sites, "
            f"{fs.get('contract_findings', 0)} flow finding"
            f"{'s' if fs.get('contract_findings', 0) != 1 else ''}"
        )
    return "\n".join(lines)


def render_json(run: LintRun) -> str:
    """A stable JSON document for tooling (``repro lint --format json``)."""
    payload: Dict[str, object] = {
        "files_checked": run.files_checked,
        "rules": list(run.rule_ids),
        "baseline_size": run.baseline_size,
        "counts": {
            "total": len(run.diagnostics),
            "new": len(run.new),
            "baselined": run.suppressed_by_baseline,
        },
        "findings": [d.to_json() for d in run.new],
        "exit_code": run.exit_code,
    }
    if run.flow_summary is not None:
        payload["flow"] = dict(run.flow_summary)
    return json.dumps(payload, indent=2, sort_keys=True)
