"""Build, validate, render, and write ``profile.json``.

The document is a pure function of the span tree (plus the optional
sampler/allocation sections), serialized with sorted keys — running it
twice over the same trace produces byte-identical files, which is what
lets ``make profile-smoke`` ``cmp`` two builds and lets profiles be
diffed across commits.  ``docs/profile.schema.json`` pins the shape;
validation reuses the zero-dep subset validator from
:mod:`repro.obs.report`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

from repro import storage
from repro.obs.report import load_schema, validate_against_schema
from repro.obs.profile.selftime import (
    SelfTimeProfile,
    render_self_time,
    self_time_profile,
)

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "build_profile_doc",
    "render_profile",
    "validate_profile",
    "write_profile",
]

PROFILE_SCHEMA_VERSION = 1

#: Entries kept in the per-stage breakdown (full detail stays in the
#: flat ``self_time`` list).
STAGE_TOP_N = 8


def build_profile_doc(
    spans: Iterable[Any],
    run_id: str = "",
    source: str = "trace",
    spans_leaked: int = 0,
    leaked_names: Optional[List[str]] = None,
    sampler: Optional[Dict[str, Any]] = None,
    allocs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The JSON-ready profile document for one trace."""
    profile = self_time_profile(spans)
    root = profile.root_total_s
    self_time = [
        {
            "name": e.name,
            "layer": e.layer,
            "calls": e.calls,
            "total_s": e.total_s,
            "self_s": e.self_s,
            "share": (e.self_s / root) if root > 0 else 0.0,
        }
        for e in profile.entries
    ]
    stages = [
        {
            "stage": b.stage,
            "total_s": b.total_s,
            "self_time": [
                {"name": e.name, "calls": e.calls, "self_s": e.self_s}
                for e in b.entries[:STAGE_TOP_N]
            ],
        }
        for b in profile.stages
    ]
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "run_id": run_id,
        "source": source,
        "trace": {
            "spans": profile.n_spans,
            "open": profile.n_open,
            "spans_leaked": spans_leaked,
            "leaked_names": sorted(leaked_names or []),
        },
        "root_total_s": root,
        "self_time": self_time,
        "stages": stages,
        "sampler": sampler
        or {"enabled": False, "samples": 0, "interval_ms": None,
            "distinct_stacks": 0},
        "allocs": allocs or {"enabled": False, "entries": []},
    }


def validate_profile(
    data: Dict[str, Any], schema: Optional[Dict[str, Any]] = None
) -> List[str]:
    """Check a profile dict against ``docs/profile.schema.json``."""
    if schema is None:
        schema = load_schema("profile.schema.json")
    return validate_against_schema(data, schema)


def write_profile(data: Dict[str, Any], path: str) -> str:
    """Commit the canonical (sorted-keys) serialization atomically."""
    storage.commit_text(
        path,
        json.dumps(data, indent=2, sort_keys=True) + "\n",
        label="profile.json",
    )
    return path


def _profile_from_doc(data: Dict[str, Any]) -> SelfTimeProfile:
    """Rebuild a renderable profile object from a loaded document."""
    from repro.obs.profile.selftime import SelfTimeEntry

    entries = [
        SelfTimeEntry(
            name=row["name"],
            layer=row["layer"],
            calls=row["calls"],
            total_s=row["total_s"],
            self_s=row["self_s"],
        )
        for row in data.get("self_time", [])
    ]
    trace = data.get("trace", {})
    return SelfTimeProfile(
        entries=entries,
        stages=[],
        root_total_s=data.get("root_total_s", 0.0),
        n_spans=trace.get("spans", 0),
        n_open=trace.get("open", 0),
    )


def _human_bytes(n: int) -> str:
    sign = "-" if n < 0 else ""
    size = float(abs(n))
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{sign}{size:.1f}{unit}"
        size /= 1024.0
    return f"{sign}{size:.1f}GiB"


def render_profile(
    data: Dict[str, Any], top: int = 15, allocs: bool = False
) -> str:
    """Text view of a profile document: header, hotspot table, stage
    roll-up, sampler line, optionally the allocation table."""
    lines: List[str] = []
    run_id = data.get("run_id") or "-"
    lines.append(f"profile — run {run_id} (source: {data.get('source', '?')})")
    trace = data.get("trace", {})
    trace_line = (
        f"spans: {trace.get('spans', 0)}"
        f" ({trace.get('open', 0)} open, "
        f"{trace.get('spans_leaked', 0)} leaked)"
    )
    leaked = trace.get("leaked_names") or []
    if leaked:
        trace_line += f" — leaked: {', '.join(leaked)}"
    lines.append(trace_line)
    lines.append("")
    lines.append(render_self_time(_profile_from_doc(data), top=top))
    stages = data.get("stages") or []
    if stages:
        lines.append("")
        lines.append("per-stage self-time:")
        for block in stages:
            hottest = [
                e for e in block.get("self_time", [])
                if not e["name"].startswith("stage.")
            ][:3]
            detail = ", ".join(
                f"{e['name']} {e['self_s']:.3f}s" for e in hottest
            ) or "-"
            lines.append(
                f"  {block['stage']:<16} {block['total_s']:>9.3f}s  ({detail})"
            )
    sampler = data.get("sampler", {})
    if sampler.get("enabled"):
        lines.append("")
        lines.append(
            f"sampler: {sampler.get('samples', 0)} samples @ "
            f"{sampler.get('interval_ms')}ms, "
            f"{sampler.get('distinct_stacks', 0)} distinct stacks"
        )
    alloc_section = data.get("allocs", {})
    if allocs and alloc_section.get("enabled"):
        lines.append("")
        lines.append(f"{'allocation hotspots':<34} {'calls':>7} "
                     f"{'self':>10} {'total':>10}")
        for row in alloc_section.get("entries", [])[: max(top, 0)]:
            lines.append(
                f"  {row['name']:<32} {row['calls']:>7d} "
                f"{_human_bytes(row['self_bytes']):>10} "
                f"{_human_bytes(row['total_bytes']):>10}"
            )
    return "\n".join(lines) + "\n"


def build_from_trace_file(
    trace_path: str, run_id: str = ""
) -> Dict[str, Any]:
    """Profile an existing trace JSONL (the retroactive path).

    Trace files record spans, not the tracer's leak bookkeeping, so
    ``spans_leaked`` stays 0 here; never-closed spans still show in
    ``trace.open``.  ``source`` is the basename only, keeping the output
    byte-stable regardless of where the trace lives.
    """
    from repro.obs.export import read_spans_jsonl

    spans = read_spans_jsonl(trace_path)
    return build_profile_doc(
        spans, run_id=run_id, source=os.path.basename(trace_path)
    )
