"""A typed, immutable-by-convention column of values.

STR columns are dictionary-encoded: the backing storage is an int32
``codes`` array plus a sorted pool of distinct strings, with ``-1`` as the
missing-value sentinel (None).  Equality, ``isin``, ``isnull`` and
grouping/sorting kernels operate on the integer codes; the object array of
decoded strings is materialized lazily (and cached) only when ``values`` or
``to_list`` is asked for, so the public API is unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.tables.schema import DType
from repro.util.errors import DataError

__all__ = ["Column"]

#: Code used in dictionary-encoded columns for a missing (None) value.
NULL_CODE = -1


def _coerce(values: Any, dtype: DType) -> np.ndarray:
    np_dtype = dtype.numpy_dtype()
    try:
        return np.asarray(values, dtype=np_dtype)
    except (TypeError, ValueError) as exc:
        raise DataError(f"cannot coerce values to {dtype.value}: {exc}") from exc


def _encode_strings(values: Any) -> "tuple[np.ndarray, np.ndarray]":
    """Dictionary-encode a sequence of str/None into (codes, sorted pool)."""
    n = len(values)
    codes = np.empty(n, dtype=np.int32)
    mapping: dict = {}
    for i, v in enumerate(values):
        if v is None:
            codes[i] = NULL_CODE
        elif isinstance(v, str):
            code = mapping.get(v)
            if code is None:
                code = len(mapping)
                mapping[v] = code
            codes[i] = code
        else:
            raise DataError(
                f"str column got non-string value {v!r} at index {i}"
            )
    if not mapping:
        return codes, np.empty(0, dtype=object)
    pool = np.empty(len(mapping), dtype=object)
    pool[:] = list(mapping)
    order = np.argsort(pool)
    # remap first-appearance codes onto the sorted pool; slot -1 keeps the
    # NULL_CODE sentinel fixed under the fancy index below
    remap = np.empty(len(mapping) + 1, dtype=np.int32)
    remap[order] = np.arange(len(order), dtype=np.int32)
    remap[-1] = NULL_CODE
    return remap[codes], pool[order]


def _infer_dtype(values: Sequence[Any]) -> DType:
    if isinstance(values, np.ndarray) and values.dtype != object:
        return DType.from_numpy(values.dtype)
    for v in values:
        if v is None:
            continue
        if isinstance(v, (bool, np.bool_)):
            return DType.BOOL
        if isinstance(v, (int, np.integer)):
            return DType.INT
        if isinstance(v, (float, np.floating)):
            return DType.FLOAT
        if isinstance(v, str):
            return DType.STR
        raise DataError(f"cannot infer column dtype from value {v!r}")
    raise DataError("cannot infer dtype of an all-None or empty column; pass dtype=")


class Column:
    """A named 1-D array of a single logical :class:`DType`.

    Columns wrap numpy arrays; numeric reductions delegate to numpy.  ``None``
    is allowed only in STR columns (missing geolocation labels); numeric
    missing values are represented as NaN in FLOAT columns.

    STR columns store int32 ``codes`` into a sorted string ``pool`` instead
    of an object array; ``values`` decodes transparently.
    """

    def __init__(self, name: str, values: Any, dtype: Union[DType, None] = None):
        if not name:
            raise ValueError("column name must be non-empty")
        codes = pool = None
        if isinstance(values, Column):
            if dtype is None:
                dtype = values.dtype
            if dtype is DType.STR and values._dtype is DType.STR:
                codes, pool = values._codes, values._pool
            else:
                values = values.values
        if codes is None:
            if np.ndim(values) != 1:
                values = np.atleast_1d(values)
                if values.ndim != 1:
                    raise DataError(f"column {name!r}: values must be 1-D")
            if dtype is None:
                dtype = _infer_dtype(values)
            if dtype is DType.STR:
                codes, pool = _encode_strings(values)
                values = None
            else:
                values = _coerce(values, dtype)
        self._name = name
        self._dtype = dtype
        self._data = values if codes is None else None
        self._codes = codes
        self._pool = pool
        self._decoded: Optional[np.ndarray] = None

    @classmethod
    def from_codes(cls, name: str, codes: np.ndarray, pool: np.ndarray) -> "Column":
        """Build a STR column directly from dictionary storage.

        ``pool`` must be a sorted object array of distinct strings and
        ``codes`` an integer array with entries in ``[-1, len(pool))``
        (``-1`` = None).  No validation beyond dtype coercion is performed —
        this is the zero-copy path used by the kernels and the CSV reader.
        """
        if not name:
            raise ValueError("column name must be non-empty")
        col = cls.__new__(cls)
        col._name = name
        col._dtype = DType.STR
        col._data = None
        col._codes = np.ascontiguousarray(codes, dtype=np.int32)
        col._pool = np.asarray(pool, dtype=object)
        col._decoded = None
        return col

    @classmethod
    def from_interned(
        cls, name: str, codes: Any, pool: Sequence[Optional[str]]
    ) -> "Column":
        """Build a STR column from first-appearance interning.

        ``pool`` lists the distinct strings in the order they were first
        seen (e.g. by a CSV reader's intern dict) and ``codes`` indexes
        into it, with ``-1`` for None.  The pool is re-sorted into the
        canonical dictionary order and the codes remapped accordingly.
        """
        codes = np.asarray(codes, dtype=np.int32)
        pool_arr = np.empty(len(pool), dtype=object)
        pool_arr[:] = list(pool)
        if not len(pool_arr):
            return cls.from_codes(name, codes, pool_arr)
        order = np.argsort(pool_arr)
        remap = np.empty(len(pool_arr) + 1, dtype=np.int32)
        remap[order] = np.arange(len(order), dtype=np.int32)
        remap[-1] = NULL_CODE
        return cls.from_codes(name, remap[codes], pool_arr[order])

    # -- identity ---------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def dtype(self) -> DType:
        return self._dtype

    @property
    def values(self) -> np.ndarray:
        """The backing numpy array (treat as read-only).

        For STR columns this decodes codes through the pool into an object
        array of ``str | None``; the result is cached on the column.
        """
        if self._dtype is DType.STR:
            if self._decoded is None:
                lut = np.empty(len(self._pool) + 1, dtype=object)
                lut[: len(self._pool)] = self._pool
                lut[len(self._pool)] = None
                self._decoded = lut[self._codes]
            return self._decoded
        return self._data

    @property
    def codes(self) -> Optional[np.ndarray]:
        """Dictionary codes (STR columns only; None otherwise). Read-only."""
        return self._codes

    @property
    def pool(self) -> Optional[np.ndarray]:
        """Sorted distinct-string pool (STR columns only). Read-only.

        The pool may be a superset of the values actually present: ``take``
        and ``mask`` share the parent's pool rather than re-encoding.
        """
        return self._pool

    @property
    def nbytes(self) -> int:
        """Bytes of backing storage this column holds right now.

        Numeric columns count their numpy buffer.  STR columns count the
        int32 code array, the pool's pointer array, and the UTF-8 payload
        of every pooled string — plus the decoded object-array cache when
        it has been materialized.  The sum is what the memory-accounting
        layer (``repro.obs.memory``) reports per table.
        """
        if self._dtype is DType.STR:
            total = int(self._codes.nbytes) + int(self._pool.nbytes)
            total += sum(len(s.encode("utf-8")) for s in self._pool)
            if self._decoded is not None:
                total += int(self._decoded.nbytes)
            return total
        return int(self._data.nbytes)

    def memory_breakdown(self) -> dict:
        """Component bytes behind :attr:`nbytes` (keys sorted, JSON-ready)."""
        if self._dtype is DType.STR:
            return {
                "codes_bytes": int(self._codes.nbytes),
                "decoded_cache_bytes": (
                    int(self._decoded.nbytes) if self._decoded is not None else 0
                ),
                "pool_bytes": int(self._pool.nbytes)
                + sum(len(s.encode("utf-8")) for s in self._pool),
                "pool_size": int(len(self._pool)),
            }
        return {"data_bytes": int(self._data.nbytes)}

    def rename(self, name: str) -> "Column":
        if self._dtype is DType.STR:
            return Column.from_codes(name, self._codes, self._pool)
        return Column(name, self._data, self._dtype)

    def __len__(self) -> int:
        if self._dtype is DType.STR:
            return len(self._codes)
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __getitem__(self, idx: Any) -> Any:
        if self._dtype is DType.STR:
            result = self._codes[idx]
            if isinstance(result, np.ndarray):
                return Column.from_codes(self._name, result, self._pool)
            return None if result < 0 else self._pool[result]
        result = self._data[idx]
        if isinstance(result, np.ndarray):
            return Column(self._name, result, self._dtype)
        return result

    def take(self, indices: np.ndarray) -> "Column":
        if self._dtype is DType.STR:
            return Column.from_codes(self._name, self._codes[indices], self._pool)
        return Column(self._name, self._data[indices], self._dtype)

    def mask(self, keep: np.ndarray) -> "Column":
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != len(self):
            raise DataError(
                f"mask length {len(keep)} != column length {len(self)}"
            )
        return self.take(keep)

    @staticmethod
    def concat(columns: Sequence["Column"]) -> "Column":
        """Concatenate columns of one dtype; STR columns merge pools."""
        if not columns:
            raise DataError("concat needs at least one column")
        head = columns[0]
        if head._dtype is DType.STR:
            merged = np.unique(np.concatenate([c._pool for c in columns]))
            parts = []
            for c in columns:
                # reindex this column's codes into the merged pool; slot -1
                # keeps the NULL_CODE sentinel fixed
                remap = np.empty(len(c._pool) + 1, dtype=np.int32)
                remap[: len(c._pool)] = np.searchsorted(merged, c._pool)
                remap[-1] = NULL_CODE
                parts.append(remap[c._codes])
            return Column.from_codes(head._name, np.concatenate(parts), merged)
        return Column(
            head._name,
            np.concatenate([c.values for c in columns]),
            head._dtype,
        )

    # -- reductions -------------------------------------------------------
    def _numeric(self) -> np.ndarray:
        if self._dtype is DType.STR:
            raise DataError(f"column {self._name!r} is not numeric")
        return self._data.astype(np.float64)

    def mean(self) -> float:
        """Mean, ignoring NaN."""
        return float(np.nanmean(self._numeric()))

    def median(self) -> float:
        """Median, ignoring NaN."""
        return float(np.nanmedian(self._numeric()))

    def std(self, ddof: int = 1) -> float:
        """Sample standard deviation (ddof=1), ignoring NaN."""
        return float(np.nanstd(self._numeric(), ddof=ddof))

    def sum(self) -> float:
        return float(np.nansum(self._numeric()))

    def min(self) -> float:
        return float(np.nanmin(self._numeric()))

    def max(self) -> float:
        return float(np.nanmax(self._numeric()))

    def nunique(self) -> int:
        """Number of distinct values (None/NaN count as one value each)."""
        if self._dtype is DType.STR:
            return int(np.unique(self._codes).size)
        if self._dtype is DType.FLOAT:
            nan = np.isnan(self._data)
            return int(np.unique(self._data[~nan]).size + bool(nan.any()))
        return int(np.unique(self._data).size)

    def to_list(self) -> list:
        return self.values.tolist()

    def unique(self) -> list:
        """Sorted distinct values (None last, NaN collapsed to one)."""
        if self._dtype is DType.STR:
            present = np.unique(self._codes)
            out: List[Any] = [self._pool[c] for c in present if c >= 0]
            if present.size and present[0] < 0:
                out.append(None)
            return out
        if self._dtype is DType.FLOAT:
            nan = np.isnan(self._data)
            out = np.unique(self._data[~nan]).tolist()
            if nan.any():
                out.append(float("nan"))
            return out
        return np.unique(self._data).tolist()

    # -- elementwise arithmetic --------------------------------------------
    def _arith(self, other: Any, op: Callable, name: str) -> "Column":
        if self._dtype is DType.STR:
            raise DataError(f"arithmetic not supported on str column {self._name!r}")
        if isinstance(other, Column):
            if other.dtype is DType.STR:
                raise DataError(f"arithmetic not supported on str column {other.name!r}")
            if len(other) != len(self):
                raise DataError(
                    f"length mismatch: {len(self)} vs {len(other)}"
                )
            other = other.values
        result = op(self._data.astype(np.float64), other)
        return Column(name or self._name, result, DType.FLOAT)

    def __add__(self, other: Any) -> "Column":
        return self._arith(other, np.add, self._name)

    def __sub__(self, other: Any) -> "Column":
        return self._arith(other, np.subtract, self._name)

    def __mul__(self, other: Any) -> "Column":
        return self._arith(other, np.multiply, self._name)

    def __truediv__(self, other: Any) -> "Column":
        def safe_div(a, b):
            b = np.asarray(b, dtype=np.float64)
            return np.divide(a, b, out=np.full_like(a, np.nan), where=b != 0)

        return self._arith(other, safe_div, self._name)

    def map(self, fn: Callable[[Any], Any], dtype: Optional[DType] = None) -> "Column":
        """Elementwise transform; dtype inferred from results unless given.

        On STR columns ``fn`` is called once per *distinct* value present
        (it must be pure; ``fn(None)`` only when a null is present), then
        the results are broadcast through the codes — this is what makes
        per-value lookups like IP→AS resolution O(distinct) instead of
        O(rows).  Pool entries no row uses (``take``/``mask`` keep the
        parent's pool) are skipped.
        """
        if self._dtype is DType.STR:
            used = np.zeros(len(self._pool) + 1, dtype=bool)
            used[self._codes] = True  # NULL_CODE marks the last slot
            values = self._pool.tolist() + [None]
            lut = np.empty(len(values), dtype=object)
            for i in np.flatnonzero(used).tolist():
                lut[i] = fn(values[i])
            return Column(self._name, lut[self._codes], dtype)
        return Column(self._name, [fn(v) for v in self._data], dtype)

    # -- elementwise comparisons (used by Expr) ----------------------------
    def _code_of(self, value: str) -> int:
        """Pool index of ``value``, or -2 if absent (pool is sorted)."""
        i = int(np.searchsorted(self._pool, value))
        if i < len(self._pool) and self._pool[i] == value:
            return i
        return -2

    def _cmp(self, other: Any, op: str) -> np.ndarray:
        ops = {
            "==": np.equal,
            "!=": np.not_equal,
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
        }
        if isinstance(other, Column):
            other = other.values
        if self._dtype is DType.STR:
            if op in ("<", "<=", ">", ">="):
                raise DataError("ordered comparison not supported on str columns")
            if other is None or isinstance(other, str):
                if other is None:
                    eq = self._codes == NULL_CODE
                else:
                    code = self._code_of(other)
                    if code < 0:
                        eq = np.zeros(len(self), dtype=bool)
                    else:
                        eq = self._codes == code
                return eq if op == "==" else ~eq
            result = ops[op](self.values, other)
            return np.asarray(result, dtype=bool)
        result = ops[op](self._data, other)
        return np.asarray(result, dtype=bool)

    def isin(self, allowed: Iterable[Any]) -> np.ndarray:
        """Membership test; NaN in ``allowed`` matches NaN values (FLOAT)."""
        allowed_set = set(allowed)
        if self._dtype is DType.STR:
            # Encode the allowed strings against the sorted pool with one
            # searchsorted instead of probing the set per pool entry; only
            # str members can match dictionary values.
            strs = np.array(
                sorted(a for a in allowed_set if isinstance(a, str)),
                dtype=object,
            )
            lut = np.empty(len(self._pool) + 1, dtype=bool)
            if len(strs) and len(self._pool):
                pos = np.minimum(
                    np.searchsorted(strs, self._pool), len(strs) - 1
                )
                lut[:-1] = strs[pos] == self._pool
            else:
                lut[:-1] = False
            lut[len(self._pool)] = None in allowed_set
            return lut[self._codes]
        nums = []
        has_nan = False
        for a in allowed_set:
            if isinstance(a, (float, np.floating)) and np.isnan(a):
                has_nan = True
            elif isinstance(a, (bool, np.bool_, int, np.integer, float, np.floating)):
                nums.append(a)
        if nums:
            result = np.isin(self._data, np.asarray(nums))
        else:
            result = np.zeros(len(self), dtype=bool)
        if has_nan and self._dtype is DType.FLOAT:
            result |= np.isnan(self._data)
        return result

    def isnull(self) -> np.ndarray:
        """True where the value is None (STR) or NaN (FLOAT)."""
        if self._dtype is DType.STR:
            return self._codes == NULL_CODE
        if self._dtype is DType.FLOAT:
            return np.isnan(self._data)
        return np.zeros(len(self), dtype=bool)

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.values[:5])
        ell = ", ..." if len(self) > 5 else ""
        return f"Column({self._name!r}:{self._dtype.value}, [{preview}{ell}], n={len(self)})"
