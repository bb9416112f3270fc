"""Data-plane lineage: content fingerprints and the provenance DAG.

The paper's conclusions are longitudinal — prewar vs. wartime, 2021 vs.
2022 — and such claims only hold up when every derived table can be traced
back to its exact inputs.  This module gives every :class:`~repro.tables.
table.Table` entering or leaving a pipeline stage a **stable content
fingerprint**, and folds the stage graph into a deterministic
``provenance.json``:

* :func:`fingerprint_column` hashes a column's *logical* content.  STR
  columns are hashed through their dictionary encoding — canonicalized
  codes plus the UTF-8 pool payload — so fingerprinting a million-row
  string column never materializes a million Python strings.  Two columns
  with equal values always hash equal, even when one carries a superset
  pool inherited from ``take``/``mask``.
* :func:`fingerprint_table` combines per-column fingerprints (in column
  order, names included) into one table fingerprint plus a row count.
* :class:`LineageRecorder` accumulates one node per pipeline stage —
  stage name, status, declared input fingerprints, output fingerprint(s) —
  and renders the DAG as canonical JSON (byte-stable across reruns of the
  same configuration: no wall-clock anywhere) or Graphviz DOT.

Everything here is free when lineage is off: the pipeline checks
``obs.active_lineage() is not None`` once per run, and fingerprinting
happens only on the recorder path.  Like the rest of ``repro.obs``, this module
depends on numpy and the standard library only; tables arrive duck-typed
(``column_names`` / ``column`` / ``n_rows``), never imported.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import storage

__all__ = [
    "LineageRecorder",
    "PROVENANCE_SCHEMA_VERSION",
    "default_provenance_schema_path",
    "fingerprint_column",
    "fingerprint_table",
    "fingerprint_value",
    "provenance_to_dot",
    "provenance_to_json",
    "render_provenance",
    "validate_provenance",
    "write_provenance",
]

PROVENANCE_SCHEMA_VERSION = 1

#: Hex digits kept from the sha256 digest; 64 bits of fingerprint is far
#: beyond collision risk for the handful of tables one run produces while
#: keeping provenance.json human-diffable.
_FINGERPRINT_LEN = 16


def _hash_str_column(h: "hashlib._Hash", codes: np.ndarray, pool: np.ndarray) -> None:
    """Feed a dictionary-encoded column into ``h`` in canonical form.

    ``take``/``mask`` share the parent's pool, so the same logical values
    can sit behind different (superset) pools.  Canonicalize by remapping
    codes onto the subset of pool entries actually referenced — a pure
    integer operation — then hash the remapped codes and only the used
    strings.  The pool is sorted, so the used subset keeps a deterministic
    order.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int32)
    used = np.unique(codes)
    used_nonneg = used[used >= 0]
    if len(used_nonneg) < len(pool):
        remap = np.searchsorted(used_nonneg, codes)
        remap[codes < 0] = -1
        codes = np.ascontiguousarray(remap, dtype=np.int32)
        pool = pool[used_nonneg]
    h.update(b"codes\x00")
    h.update(codes.tobytes())
    h.update(b"pool\x00")
    for s in pool:
        h.update(s.encode("utf-8"))
        h.update(b"\x00")


def fingerprint_column(column: Any) -> str:
    """A stable hex fingerprint of one column's logical content.

    Covers dtype and values (order-sensitive).  STR columns hash codes and
    pool without decoding; numeric columns hash the raw buffer, so NaN
    payloads and signed zeros are distinguished exactly as the engine's
    byte-identity tests distinguish them.
    """
    h = hashlib.sha256()
    dtype = getattr(column, "dtype", None)
    h.update(str(getattr(dtype, "value", dtype)).encode("utf-8"))
    h.update(b"\x00")
    codes = getattr(column, "codes", None)
    if codes is not None:
        _hash_str_column(h, codes, column.pool)
    else:
        values = np.ascontiguousarray(column.values)
        h.update(str(values.dtype).encode("utf-8"))
        h.update(b"\x00")
        h.update(values.tobytes())
    return h.hexdigest()[:_FINGERPRINT_LEN]


def fingerprint_table(table: Any) -> Dict[str, Any]:
    """Fingerprint a table: per-column digests plus one combined digest.

    The combined digest covers column names, order, and content, so a
    rename, a reorder, or a single changed cell all change it — while the
    per-column map pins *which* columns changed.
    """
    columns: Dict[str, str] = {}
    h = hashlib.sha256()
    for name in table.column_names:
        fp = fingerprint_column(table.column(name))
        columns[name] = fp
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(fp.encode("ascii"))
        h.update(b"\x00")
    return {
        "fingerprint": h.hexdigest()[:_FINGERPRINT_LEN],
        "n_rows": int(table.n_rows),
        "columns": columns,
    }


def fingerprint_value(value: Any) -> Optional[Dict[str, Any]]:
    """Fingerprint a stage value, if it is table- or dataset-shaped.

    Tables yield :func:`fingerprint_table`; datasets (anything exposing
    ``ndt`` and ``traces`` tables) yield a combined digest over both, with
    per-table entries under ``tables``.  Anything else — report text,
    scalars — returns ``None`` and is recorded without a fingerprint.
    """
    if hasattr(value, "column_names") and hasattr(value, "n_rows"):
        return fingerprint_table(value)
    ndt = getattr(value, "ndt", None)
    traces = getattr(value, "traces", None)
    if ndt is not None and traces is not None and hasattr(ndt, "column_names"):
        tables = {"ndt": fingerprint_table(ndt), "traces": fingerprint_table(traces)}
        h = hashlib.sha256()
        for name in sorted(tables):
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
            h.update(tables[name]["fingerprint"].encode("ascii"))
            h.update(b"\x00")
        return {
            "fingerprint": h.hexdigest()[:_FINGERPRINT_LEN],
            "n_rows": sum(t["n_rows"] for t in tables.values()),
            "tables": tables,
        }
    return None


class LineageRecorder:
    """Accumulates the provenance DAG for one run.

    One node per executed stage, in pipeline order.  Output fingerprints
    are cached by stage name, so a stage declared as another's input is
    fingerprinted once, not re-hashed per consumer.
    """

    def __init__(self):
        self.run_id = ""
        self.config_key = ""
        self._stages: List[Dict[str, Any]] = []
        self._outputs: Dict[str, Optional[Dict[str, Any]]] = {}

    def __len__(self) -> int:
        return len(self._stages)

    def set_run(self, run_id: str = "", config_key: str = "") -> None:
        """Stamp run identity (config-hash key) onto the provenance doc."""
        if run_id:
            self.run_id = run_id
        if config_key:
            self.config_key = config_key

    def record_stage(
        self,
        name: str,
        value: Any = None,
        inputs: Optional[Dict[str, Any]] = None,
        status: str = "ok",
    ) -> None:
        """Record one stage execution.

        ``inputs`` maps upstream stage names to their values; values for
        stages this recorder already saw are resolved from the fingerprint
        cache without re-hashing.  ``value`` is the stage's own output.
        """
        out = fingerprint_value(value) if value is not None else None
        self._outputs[name] = out
        in_fps: Dict[str, Any] = {}
        for in_name in sorted(inputs or {}):
            if in_name in self._outputs:
                fp = self._outputs[in_name]
            else:
                in_value = (inputs or {})[in_name]
                fp = fingerprint_value(in_value) if in_value is not None else None
            in_fps[in_name] = (
                {"fingerprint": fp["fingerprint"], "n_rows": fp["n_rows"]}
                if fp
                else None
            )
        self._stages.append(
            {
                "stage": name,
                "status": status,
                "inputs": in_fps,
                "output": out,
            }
        )

    def to_provenance(self) -> Dict[str, Any]:
        """The JSON-ready provenance document (schema-pinned)."""
        return {
            "schema_version": PROVENANCE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "config_key": self.config_key,
            "stages": list(self._stages),
        }


def provenance_to_json(data: Dict[str, Any]) -> str:
    """The one canonical byte-stable encoding of a provenance document."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def write_provenance(recorder: LineageRecorder, path: str) -> str:
    """Write ``provenance.json`` (canonical form, atomic); returns the path.

    Provenance is the oracle the crash-matrix harness compares against, so
    it gets the full commit discipline: temp file, fsync, rename, checksum
    sidecar.  A killed run leaves either the previous document or none.
    """
    storage.commit_text(
        path,
        provenance_to_json(recorder.to_provenance()),
        label="lineage.provenance",
        sidecar=True,
    )
    return path


# -- rendering ---------------------------------------------------------------
def render_provenance(data: Dict[str, Any]) -> str:
    """A text view of the DAG: one line per stage with in/out digests."""
    lines = [
        f"provenance — run {data.get('run_id') or '-'} "
        f"(config {data.get('config_key') or '-'})"
    ]
    stages = data.get("stages", [])
    if not stages:
        lines.append("  (no stages recorded)")
        return "\n".join(lines)
    for node in stages:
        out = node.get("output")
        out_txt = (
            f"{out['fingerprint']} ({out['n_rows']} rows)" if out else "-"
        )
        ins = node.get("inputs") or {}
        in_txt = ", ".join(
            f"{k}:{v['fingerprint']}" if v else f"{k}:-" for k, v in ins.items()
        ) or "-"
        lines.append(
            f"  {node.get('stage', '?'):<24s} {node.get('status', '?'):<7s} "
            f"in [{in_txt}] -> {out_txt}"
        )
    return "\n".join(lines)


def provenance_to_dot(data: Dict[str, Any]) -> str:
    """The DAG in Graphviz DOT form (``repro obs lineage --dot``)."""
    lines = ["digraph provenance {", "  rankdir=LR;", "  node [shape=box];"]
    for node in data.get("stages", []):
        stage = node.get("stage", "?")
        out = node.get("output")
        label = stage
        if out:
            label += f"\\n{out['fingerprint']}\\n{out['n_rows']} rows"
        color = "" if node.get("status") in ("ok", "cached") else ", color=red"
        lines.append(f'  "{stage}" [label="{label}"{color}];')
        for in_name in node.get("inputs") or {}:
            lines.append(f'  "{in_name}" -> "{stage}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- schema validation -------------------------------------------------------
def default_provenance_schema_path() -> str:
    """``docs/provenance.schema.json`` at the repo root (dev layout)."""
    return str(
        Path(__file__).resolve().parents[3] / "docs" / "provenance.schema.json"
    )


def validate_provenance(
    data: Dict[str, Any], schema: Optional[Dict[str, Any]] = None
) -> List[str]:
    """Check a provenance dict against the checked-in schema."""
    from repro.obs.report import validate_against_schema

    if schema is None:
        with open(default_provenance_schema_path(), "r", encoding="utf-8") as fh:
            schema = json.load(fh)
    return validate_against_schema(data, schema)
