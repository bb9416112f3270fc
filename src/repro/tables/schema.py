"""Column dtypes and table schemas."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.util.errors import DataError

__all__ = [
    "Cols",
    "DERIVED_COLUMNS",
    "DType",
    "Field",
    "NDT_COLUMNS",
    "Schema",
    "TRACE_COLUMNS",
    "known_columns",
]


class Cols:
    """Canonical column-name constants — the single source of truth.

    Every module that names a dataset column in code should reference these
    constants (or a name in :data:`DERIVED_COLUMNS`) instead of retyping the
    string: the ``schema-columns`` lint rule cross-checks ad-hoc string
    literals at table call sites against :func:`known_columns`, so a typo'd
    ``"MeanTput "`` fails the lint gate instead of silently corrupting an
    analysis.
    """

    # -- NDT download table (repro.ndt.measurement.NDT_SCHEMA) --------------
    TEST_ID = "test_id"
    DAY = "day"
    DATE = "date"
    YEAR = "year"
    CITY = "city"
    OBLAST = "oblast"
    CITY_TRUE = "city_true"
    ASN = "asn"
    CLIENT_IP = "client_ip"
    SITE = "site"
    SERVER_IP = "server_ip"
    PROTOCOL = "protocol"
    CCA = "cca"
    TPUT = "tput_mbps"  # the paper's MeanTput
    MIN_RTT = "min_rtt_ms"  # the paper's MinRTT
    LOSS_RATE = "loss_rate"  # the paper's LossRate

    # -- traceroute table (repro.synth.generator.TRACE_SCHEMA) --------------
    PATH = "path"
    AS_PATH = "as_path"
    N_HOPS = "n_hops"

    # -- common derived columns ---------------------------------------------
    PERIOD = "period"
    REASON = "reason"  # quarantine reason (tables.validate.REASON_COLUMN)
    CLIENT_ASN = "client_asn"  # AS of the client IP, mapped via the RIB


#: Ordered column names of the NDT download table.
NDT_COLUMNS = (
    Cols.TEST_ID,
    Cols.DAY,
    Cols.DATE,
    Cols.YEAR,
    Cols.CITY,
    Cols.OBLAST,
    Cols.CITY_TRUE,
    Cols.ASN,
    Cols.CLIENT_IP,
    Cols.SITE,
    Cols.SERVER_IP,
    Cols.PROTOCOL,
    Cols.CCA,
    Cols.TPUT,
    Cols.MIN_RTT,
    Cols.LOSS_RATE,
)

#: Ordered column names of the traceroute table.
TRACE_COLUMNS = (
    Cols.TEST_ID,
    Cols.DAY,
    Cols.YEAR,
    Cols.CLIENT_IP,
    Cols.SERVER_IP,
    Cols.PATH,
    Cols.AS_PATH,
    Cols.N_HOPS,
)

#: Column names produced by transforms (aggregation outputs, ``with_column``
#: additions, report tables).  Any derived name that is later *read* by a
#: ``col()`` / ``select`` / ``group_by`` / ``aggregate`` call site must be
#: registered here, or the ``schema-columns`` lint rule flags it as unknown.
DERIVED_COLUMNS = frozenset(
    {
        Cols.PERIOD,  # study-period label added by analysis.common.with_periods
        Cols.REASON,  # quarantine reason column (tables.validate)
        Cols.CLIENT_ASN,  # client AS added by analysis.common.client_as_column
        # analysis.border: per-border-AS loss deltas
        "border_asn",
        "border_name",
        "ua_asn",
        "ua_name",
        "prewar",
        "wartime",
        "delta",
        # report tables: aggregate outputs and sort keys
        "tests",
        "mean",
        "count",
        "d_loss_pct",
        "d_rtt_pct",
        "d_tput_pct",
        "share",
        "median_loss",
        "significant",
        # analysis.regional: oblast-change outputs
        "zone",
        "prewar_count",
        # analysis.distros: histogram bins
        "bin_low",
        "bin_high",
        "fraction",
        # analysis.routing_churn / analysis.uncertainty
        "changes",
        "agree",
    }
)


def known_columns() -> frozenset:
    """All column names the lint gate accepts at table call sites."""
    return frozenset(NDT_COLUMNS) | frozenset(TRACE_COLUMNS) | DERIVED_COLUMNS


class DType(enum.Enum):
    """Logical column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STR = "str"

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "DType":
        """Map a numpy dtype onto a logical DType."""
        kind = np.dtype(dtype).kind
        if kind in ("i", "u"):
            return cls.INT
        if kind == "f":
            return cls.FLOAT
        if kind == "b":
            return cls.BOOL
        if kind in ("O", "U", "S"):
            return cls.STR
        raise DataError(f"unsupported numpy dtype {dtype!r}")

    def numpy_dtype(self) -> np.dtype:
        """The canonical numpy dtype used to store this logical type."""
        return {
            DType.INT: np.dtype(np.int64),
            DType.FLOAT: np.dtype(np.float64),
            DType.BOOL: np.dtype(np.bool_),
            DType.STR: np.dtype(object),
        }[self]

    def parse(self, text: str):
        """Parse one CSV cell into this logical type.

        The empty string is the CSV encoding of a missing value: ``None``
        for STR, NaN for FLOAT.  A missing INT or BOOL has no in-column
        representation, so it raises — callers decide whether that means
        "raise DataError" (strict ingest) or "quarantine the row".

        Raises ``ValueError`` on junk so ingest can turn it into a typed,
        per-row quarantine reason instead of an untyped crash.
        """
        if self is DType.STR:
            return None if text == "" else text
        if self is DType.FLOAT:
            return float("nan") if text == "" else float(text)
        if self is DType.INT:
            return int(text)
        if self is DType.BOOL:
            lowered = text.strip().lower()
            if lowered in ("true", "1"):
                return True
            if lowered in ("false", "0", ""):
                return False
            raise ValueError(f"cannot parse {text!r} as bool")
        raise ValueError(f"unhandled dtype {self!r}")  # pragma: no cover


@dataclass(frozen=True)
class Field:
    """A named, typed column slot in a schema."""

    name: str
    dtype: DType

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field name must be non-empty")


class Schema:
    """An ordered collection of fields with unique names."""

    def __init__(self, fields: Sequence[Field]):
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate field names in schema: {dupes}")
        self._fields: List[Field] = list(fields)
        self._by_name = {f.name: f for f in self._fields}

    @property
    def fields(self) -> List[Field]:
        return list(self._fields)

    @property
    def names(self) -> List[str]:
        return [f.name for f in self._fields]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._fields)

    def __getitem__(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(
                f"no field {name!r}; schema has {self.names}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.dtype.value}" for f in self._fields)
        return f"Schema({inner})"
