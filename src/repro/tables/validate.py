"""Row-validation gate: quarantine malformed rows instead of crashing.

Real M-Lab extracts are dirty — NULL metrics, duplicate test UUIDs,
impossible timestamps — and the paper's pipeline had to survive them.  The
gate here checks a table against a list of vectorized :class:`Rule` objects
and splits it into a *clean* table and a *quarantine* side table whose
extra ``reason`` column records, per row, every rule it violated.

Default mode logs and continues (the paper's drop-and-count behaviour);
strict mode raises :class:`~repro.util.errors.ValidationFailure` carrying
the full :class:`ValidationReport`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tables.schema import Cols, DType
from repro.tables.table import Table
from repro.util.errors import DataError, ValidationFailure

__all__ = [
    "GateResult",
    "Rule",
    "ValidationReport",
    "in_range",
    "non_empty",
    "positive",
    "unique",
    "validate_table",
    "within",
]

logger = logging.getLogger(__name__)

#: Extra column appended to quarantine tables.
REASON_COLUMN = Cols.REASON


@dataclass(frozen=True)
class Rule:
    """One named validity predicate over whole columns.

    ``check(table)`` returns a boolean mask that is True where a row is
    BAD.  Rules are vectorized so the gate stays O(rows) with numpy doing
    the work — validation must not become the pipeline's bottleneck.
    """

    name: str
    columns: Sequence[str]
    check: Callable[[Table], np.ndarray]

    def bad_mask(self, table: Table) -> np.ndarray:
        missing = [c for c in self.columns if c not in table]
        if missing:
            raise DataError(
                f"rule {self.name!r} needs columns {missing}; "
                f"table has {table.column_names}"
            )
        mask = np.asarray(self.check(table), dtype=bool)
        if len(mask) != table.n_rows:
            raise DataError(
                f"rule {self.name!r} returned a mask of {len(mask)} rows "
                f"for a table of {table.n_rows}"
            )
        return mask


def positive(column: str) -> Rule:
    """Numeric column must be strictly positive and finite."""

    def check(t: Table) -> np.ndarray:
        vals = t.column(column).values.astype(np.float64)
        return ~(np.isfinite(vals) & (vals > 0))

    return Rule(f"{column}:not-positive", (column,), check)


def in_range(column: str, lo: float, hi: float) -> Rule:
    """Numeric column must lie in [lo, hi] (and be finite)."""

    def check(t: Table) -> np.ndarray:
        vals = t.column(column).values.astype(np.float64)
        return ~(np.isfinite(vals) & (vals >= lo) & (vals <= hi))

    return Rule(f"{column}:outside[{lo},{hi}]", (column,), check)


def within(column: str, windows: Sequence) -> Rule:
    """INT day column must fall inside one of the (lo, hi) ordinal windows.

    Catches clock-skewed timestamps: rows stamped outside every study
    period cannot be attributed to a prewar/wartime window.
    """
    spans = [(int(lo), int(hi)) for lo, hi in windows]

    def check(t: Table) -> np.ndarray:
        vals = t.column(column).values.astype(np.int64)
        ok = np.zeros(len(vals), dtype=bool)
        for lo, hi in spans:
            ok |= (vals >= lo) & (vals <= hi)
        return ~ok

    return Rule(f"{column}:outside-study-windows", (column,), check)


def non_empty(column: str) -> Rule:
    """STR column must hold a non-empty string (neither None nor "")."""
    return Rule(
        f"{column}:empty",
        (column,),
        lambda t: t.column(column).isin(("", None)),
    )


def unique(column: str) -> Rule:
    """Column values must be unique; later duplicates are flagged.

    The first occurrence is kept (it is the one a dedup pass would keep),
    mirroring how duplicate test UUIDs are handled against BigQuery.
    """

    def check(t: Table) -> np.ndarray:
        vals = t.column(column).values
        _, first_index = np.unique(vals, return_index=True)
        keep = np.zeros(len(vals), dtype=bool)
        keep[first_index] = True
        return ~keep

    return Rule(f"{column}:duplicate", (column,), check)


@dataclass
class ValidationReport:
    """Per-table account of what the gate kept, dropped, and why."""

    name: str
    n_input: int
    n_passed: int
    n_quarantined: int
    reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.n_quarantined == 0

    def top_reasons(self, k: int = 3) -> str:
        ranked = sorted(self.reasons.items(), key=lambda kv: (-kv[1], kv[0]))
        return ", ".join(f"{name} x{count}" for name, count in ranked[:k]) or "none"

    def __str__(self) -> str:
        return (
            f"validation[{self.name}]: {self.n_passed}/{self.n_input} rows passed, "
            f"{self.n_quarantined} quarantined ({self.top_reasons()})"
        )


@dataclass
class GateResult:
    """The gate's three outputs: clean rows, quarantined rows, the report.

    Invariant (asserted by tests): ``clean.n_rows + quarantine.n_rows ==
    report.n_input`` — every dropped row is accounted for.
    """

    clean: Table
    quarantine: Table
    report: ValidationReport


def validate_table(
    table: Table,
    rules: Sequence[Rule],
    name: str = "table",
    strict: bool = False,
    log: Optional[logging.Logger] = None,
) -> GateResult:
    """Split ``table`` into clean and quarantined rows by ``rules``.

    Every row failing at least one rule lands in the quarantine table with
    a ``reason`` column joining the names of all rules it broke.  Strict
    mode raises :class:`ValidationFailure` if anything was quarantined;
    default mode logs one warning line and continues.
    """
    log = log or logger
    n = table.n_rows
    bad_any = np.zeros(n, dtype=bool)
    rule_masks: List[Tuple[str, np.ndarray]] = []
    reason_counts: Dict[str, int] = {}
    for rule in rules:
        bad = rule.bad_mask(table)
        count = int(bad.sum())
        if count:
            reason_counts[rule.name] = reason_counts.get(rule.name, 0) + count
            rule_masks.append((rule.name, bad))
        bad_any |= bad

    n_bad = int(bad_any.sum())
    # reason strings are assembled only for the quarantined rows — no
    # per-row bookkeeping over the (much larger) clean majority
    bad_idx = np.nonzero(bad_any)[0]
    reasons: List[List[str]] = [[] for _ in range(n_bad)]
    for rule_name, bad in rule_masks:
        for j in np.nonzero(bad[bad_idx])[0]:
            reasons[j].append(rule_name)
    report = ValidationReport(
        name=name,
        n_input=n,
        n_passed=n - n_bad,
        n_quarantined=n_bad,
        reasons=reason_counts,
    )
    clean = table.filter(~bad_any)
    quarantined = table.filter(bad_any)
    reason_values = np.empty(n_bad, dtype=object)
    reason_values[:] = ["; ".join(parts) for parts in reasons]
    quarantine = quarantined.with_column(REASON_COLUMN, reason_values, DType.STR)

    if n_bad:
        if strict:
            raise ValidationFailure(report)
        log.warning("%s", report)
    return GateResult(clean=clean, quarantine=quarantine, report=report)
