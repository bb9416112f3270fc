"""Dataset-level ingest gate: quarantine dirty NDT/traceroute rows.

The rules (``repro.analysis.common.ndt_rules``/``trace_rules``, shared with
the analysis guards) encode what the paper's pipeline silently relied on:
metrics are positive finite numbers, loss is a fraction, timestamps fall
inside the study windows, test UUIDs are unique, and a scamper record's hop
count matches its hop list.  Clean generator output passes untouched; tables
dirtied like real M-Lab extracts get split into a clean table and a
quarantine side table that accounts for every dropped row.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro import obs
from repro.analysis.common import ndt_rules, trace_rules
from repro.synth.generator import Dataset
from repro.tables.validate import GateResult, validate_table

__all__ = ["ndt_rules", "sanitize_dataset", "trace_rules"]


def sanitize_dataset(
    dataset: Dataset, strict: bool = False
) -> Tuple[Dataset, Dict[str, GateResult]]:
    """Run both tables through the validation gate.

    Returns the dataset rebuilt around the clean tables, plus the per-table
    :class:`GateResult` (clean/quarantine/report).  Strict mode raises
    :class:`~repro.util.errors.ValidationFailure` on the first dirty table.
    """
    gates = {
        "ndt": validate_table(dataset.ndt, ndt_rules(), name="ndt", strict=strict),
        "traces": validate_table(
            dataset.traces, trace_rules(), name="traces", strict=strict
        ),
    }
    for name, gate in gates.items():
        obs.counter(f"ingest.{name}.rows_quarantined").inc(
            gate.report.n_quarantined
        )
        obs.counter(f"ingest.{name}.rows_clean").inc(gate.clean.n_rows)
    obs.counter("ingest.rows_quarantined").inc(
        sum(g.report.n_quarantined for g in gates.values())
    )
    clean = replace(
        dataset, ndt=gates["ndt"].clean, traces=gates["traces"].clean
    )
    return clean, gates
