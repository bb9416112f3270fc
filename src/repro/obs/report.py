"""The run report: one deterministic JSON + text account of a pipeline run.

At pipeline exit the CLI folds three sources into ``run_report.json``:

* the pipeline's per-stage results (status, wall time, rows in/out,
  error) — duck-typed from :class:`repro.runtime.pipeline.RunReport` so
  this module never imports the runtime (obs sits below everything);
* the metrics snapshot (checkpoint hits, quarantine counts, kernel
  histograms);
* the tracer's ten hottest spans.

"Deterministic" means structurally: stable key order (``sort_keys``),
stable stage order (pipeline order), a fixed schema
(``docs/run_report.schema.json``) — wall-clock durations of course vary
between runs, which is exactly what ``repro obs diff`` is for.  The
rendered ``run_report.txt`` is the same data as a fixed-width table.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import storage
from repro.obs.trace import Tracer

__all__ = [
    "SCHEMA_VERSION",
    "build_run_report",
    "default_schema_path",
    "render_run_report",
    "validate_against_schema",
    "validate_run_report",
    "write_run_report",
]

SCHEMA_VERSION = 2

#: Counter names the report surfaces as first-class sections.
_CHECKPOINT_COUNTERS = ("checkpoint.hits", "checkpoint.misses", "checkpoint.saves")
_QUARANTINE_TOTAL = "ingest.rows_quarantined"
_FAULTS_TOTAL = "faults.rows_injected"


def _counter(snapshot: Optional[Dict[str, Any]], name: str) -> int:
    if not snapshot:
        return 0
    return int(snapshot.get("counters", {}).get(name, 0))


def build_run_report(
    pipeline_report,
    run_id: str = "",
    tracer: Optional[Tracer] = None,
    metrics_snapshot: Optional[Dict[str, Any]] = None,
    gates=None,
    injection=None,
    top_n: int = 10,
) -> Dict[str, Any]:
    """Assemble the JSON-ready report dict.

    Parameters
    ----------
    pipeline_report:
        A :class:`~repro.runtime.pipeline.RunReport` (duck-typed: needs
        ``key`` and ``results`` with the StageResult fields).
    gates / injection:
        The ingest :class:`GateResult` mapping and fault
        :class:`InjectionSummary` from the orchestrator, when available —
        they fill the quarantine/faults sections even with metrics off.
    """
    stages: List[Dict[str, Any]] = []
    wall_s = 0.0
    by_status = {"ok": 0, "cached": 0, "failed": 0, "skipped": 0}
    for r in pipeline_report.results:
        status = r.status.value if hasattr(r.status, "value") else str(r.status)
        by_status[status] = by_status.get(status, 0) + 1
        wall_s += r.duration_s
        stages.append(
            {
                "name": r.name,
                "status": status,
                "duration_s": r.duration_s,
                "rows_in": getattr(r, "rows_in", None),
                "rows_out": getattr(r, "rows_out", None),
                "error": r.error,
            }
        )

    quarantine: Dict[str, Any] = {
        "rows_quarantined": _counter(metrics_snapshot, _QUARANTINE_TOTAL),
        "tables": {},
    }
    if gates:
        for name in sorted(gates):
            rep = gates[name].report
            quarantine["tables"][name] = {
                "n_input": rep.n_input,
                "n_quarantined": rep.n_quarantined,
            }
        quarantine["rows_quarantined"] = sum(
            t["n_quarantined"] for t in quarantine["tables"].values()
        )

    faults: Dict[str, Any] = {
        "rows_injected": _counter(metrics_snapshot, _FAULTS_TOTAL),
        "kinds": {},
    }
    if injection is not None:
        faults["rows_injected"] = injection.total
        faults["kinds"] = {k: injection.counts[k] for k in sorted(injection.counts)}

    checkpoints = {
        name.split(".", 1)[1]: _counter(metrics_snapshot, name)
        for name in _CHECKPOINT_COUNTERS
    }
    # With metrics off, CACHED stages are still checkpoint hits.
    checkpoints["hits"] = max(checkpoints["hits"], by_status.get("cached", 0))

    top_spans: List[Dict[str, Any]] = []
    trace_health = {
        "spans": 0,
        "open": 0,
        "spans_leaked": 0,
        "leaked_names": [],
    }
    if tracer is not None:
        for rec in tracer.top_spans(top_n):
            top_spans.append(
                {
                    "name": rec.name,
                    "duration_s": rec.duration_s,
                    "start_s": rec.start_s,
                    "attrs": {k: rec.attrs[k] for k in sorted(rec.attrs)},
                }
            )
        trace_health = {
            "spans": len(tracer.spans),
            "open": len(tracer.open_spans),
            "spans_leaked": tracer.spans_leaked,
            "leaked_names": tracer.leaked_names(),
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id,
        "key": pipeline_report.key,
        "ok": bool(pipeline_report.ok),
        "totals": {
            "stages": len(stages),
            "ok": by_status.get("ok", 0),
            "cached": by_status.get("cached", 0),
            "failed": by_status.get("failed", 0),
            "skipped": by_status.get("skipped", 0),
            "wall_s": wall_s,
        },
        "stages": stages,
        "checkpoints": checkpoints,
        "quarantine": quarantine,
        "faults": faults,
        "top_spans": top_spans,
        "trace": trace_health,
        "metrics": metrics_snapshot if metrics_snapshot is not None else {},
    }


# -- rendering ---------------------------------------------------------------
def _fmt_rows(v: Optional[int]) -> str:
    return "-" if v is None else str(v)


def render_run_report(data: Dict[str, Any]) -> str:
    """The fixed-width text table written to ``run_report.txt``.

    Tolerates reports with sections trimmed (hand-edited, produced by
    older versions, or filtered by other tools): a missing section is
    reported as absent rather than crashing the renderer — ``repro obs
    summarize`` must be usable on exactly the malformed artifacts one is
    trying to debug.
    """
    lines: List[str] = []
    header = f"run report — run {data.get('run_id') or '-'}"
    if data.get("key"):
        header += f" (key {data['key']})"
    lines.append(header)
    stages = data.get("stages")
    if stages:
        lines.append(
            f"{'stage':<24s} {'status':<8s} "
            f"{'wall_s':>9s} {'rows_in':>9s} {'rows_out':>9s}  error"
        )
        for s in stages:
            error = s.get("error")
            lines.append(
                f"{s.get('name', '?'):<24s} {s.get('status', '?'):<8s} "
                f"{s.get('duration_s', 0.0):>9.3f} "
                f"{_fmt_rows(s.get('rows_in')):>9s} "
                f"{_fmt_rows(s.get('rows_out')):>9s}  "
                f"{error.splitlines()[0] if error else ''}"
            )
    else:
        lines.append("(no stages section in this report)")
    t = data.get("totals")
    if t:
        lines.append(
            f"totals: {t.get('stages', 0)} stages ({t.get('ok', 0)} ok, "
            f"{t.get('cached', 0)} cached, {t.get('failed', 0)} failed, "
            f"{t.get('skipped', 0)} skipped); "
            f"wall {t.get('wall_s', 0.0):.3f}s"
        )
    else:
        lines.append("(no totals section in this report)")
    c = data.get("checkpoints") or {}
    q = data.get("quarantine") or {}
    f = data.get("faults") or {}
    lines.append(
        f"checkpoints: {c.get('hits', 0)} hits / {c.get('misses', 0)} misses / "
        f"{c.get('saves', 0)} saves | "
        f"quarantined rows: {q.get('rows_quarantined', 0)} | "
        f"faults injected: {f.get('rows_injected', 0)}"
    )
    top_spans = data.get("top_spans") or []
    if top_spans:
        lines.append(f"top {len(top_spans)} spans:")
        for i, rec in enumerate(top_spans, 1):
            lines.append(
                f"  {i:>2d}. {rec.get('name', '?'):<32s} "
                f"{rec.get('duration_s', 0.0):>9.4f}s"
            )
    trace = data.get("trace") or {}
    if trace.get("spans"):
        lines.append(
            f"trace: {trace.get('spans', 0)} spans, "
            f"{trace.get('open', 0)} open, "
            f"{trace.get('spans_leaked', 0)} leaked"
        )
    if trace.get("spans_leaked"):
        names = ", ".join(trace.get("leaked_names") or []) or "?"
        lines.append(
            f"WARNING: {trace['spans_leaked']} span(s) closed out of order "
            f"or never closed — leaked: {names}"
        )
    return "\n".join(lines) + "\n"


def write_run_report(data: Dict[str, Any], out_dir: str) -> Dict[str, str]:
    """Write ``run_report.json`` + ``run_report.txt``; returns their paths.

    Both files commit atomically through :mod:`repro.storage`, so a crash
    mid-report leaves the previous run's report (or nothing), never half a
    JSON document a dashboard would choke on.
    """
    json_path = os.path.join(out_dir, "run_report.json")
    txt_path = os.path.join(out_dir, "run_report.txt")
    storage.commit_text(
        json_path,
        json.dumps(data, indent=2, sort_keys=True) + "\n",
        label="report.run_report.json",
    )
    storage.commit_text(
        txt_path, render_run_report(data), label="report.run_report.txt"
    )
    return {"json": json_path, "txt": txt_path}


# -- schema validation -------------------------------------------------------
def default_schema_path() -> str:
    """``docs/run_report.schema.json`` at the repo root (dev layout)."""
    return str(
        Path(__file__).resolve().parents[3] / "docs" / "run_report.schema.json"
    )


_TYPE_MAP = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: Any, expected: str) -> bool:
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return (
            isinstance(value, (int, float)) and not isinstance(value, bool)
        )
    return isinstance(value, _TYPE_MAP[expected])


def _validate(value: Any, schema: Dict[str, Any], path: str, errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(value, t) for t in allowed):
            errors.append(
                f"{path or '$'}: expected {'/'.join(allowed)}, "
                f"got {type(value).__name__}"
            )
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path or '$'}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)):
        if value < schema["minimum"]:
            errors.append(f"{path or '$'}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path or '$'}: missing required key {req!r}")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}", errors)
        extra = schema.get("additionalProperties")
        if extra is False:
            for key in value:
                if key not in props:
                    errors.append(f"{path or '$'}: unexpected key {key!r}")
        elif isinstance(extra, dict):
            for key in value:
                if key not in props:
                    _validate(value[key], extra, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]", errors)


def validate_against_schema(data: Any, schema: Dict[str, Any]) -> List[str]:
    """Check any value against a JSON schema; returns error strings.

    Implements the schema subset the checked-in files use (type,
    required, properties, items, enum, minimum, additionalProperties) so
    validation needs no third-party dependency.  Shared by the run-report
    and provenance validators.
    """
    errors: List[str] = []
    _validate(data, schema, "", errors)
    return errors


def validate_run_report(
    data: Dict[str, Any], schema: Optional[Dict[str, Any]] = None
) -> List[str]:
    """Check a report dict against ``docs/run_report.schema.json``."""
    if schema is None:
        with open(default_schema_path(), "r", encoding="utf-8") as fh:
            schema = json.load(fh)
    return validate_against_schema(data, schema)
