"""Vectorized relational kernels: factorize + sorted-run reductions.

This is the engine room under :class:`~repro.tables.groupby.GroupBy`,
``join`` and ``Table.sort_by``.  The design splits a group-by into three
vectorized steps:

1. :func:`factorize` maps the key columns to dense group ids (0..G-1),
   already numbered in the engine's canonical output order (keys ascending
   with ``None`` canonicalized to ``""``, first-occurrence tie-break — the
   exact order the old row-loop implementation produced).
2. :func:`group_sorter` stable-sorts the row indices by group id, giving
   one contiguous run per group.
3. Reduction kernels sweep the runs: either pure-numpy primitives
   (``np.bincount``, ``np.fmin/fmax.reduceat``, pair-unique counting) or
   :func:`segment_reduce`, which calls an arbitrary aggregator once per
   contiguous run.  ``segment_reduce`` with the old ``AGGREGATORS``
   functions reproduces the legacy results *bit for bit* (same value
   sequence per group, same numpy call), which is what keeps the paper
   expectation gates byte-identical.  :func:`group_reduce_batched`
   vectorizes the common aggregators across all groups at once under the
   same bit-for-bit contract.

STR columns never decode here — everything runs on dictionary codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs.metrics import ExactSum
from repro.tables.column import NULL_CODE, Column
from repro.tables.schema import DType

__all__ = [
    "BATCHED_AGGS",
    "Factorized",
    "factorize",
    "group_sorter",
    "segment_reduce",
    "group_count",
    "group_min",
    "group_max",
    "GroupMoments",
    "group_moments_exact",
    "group_nunique",
    "group_reduce_batched",
    "sort_ranks",
]


def _identity_and_rank(col: Column) -> Tuple[np.ndarray, int, np.ndarray]:
    """Per-row (identity id, cardinality, sort rank) for one key column.

    * identity — distinct values get distinct ids; ``None`` is its own id,
      distinct from ``""``.
    * rank — orders rows the way the legacy engine sorted group keys:
      ascending with ``None`` canonicalized to ``""``.  When ``""`` is
      itself in the pool, ``None`` and ``""`` get the SAME rank (they tied
      under the old ``sorted()`` key and the tie was broken by first
      occurrence); otherwise ``None`` ranks just below every real string.
    """
    if col.dtype is DType.STR:
        codes = col.codes
        pool = col.pool
        ident = codes.astype(np.int64) + 1  # None -> 0
        # even/odd scheme: code c -> 2c+1; None -> 1 if "" is pool[0]
        # (tie with ""), else 0 (below everything)
        rank = 2 * codes.astype(np.int64) + 1
        none_rank = 1 if (len(pool) and pool[0] == "") else 0
        rank = np.where(codes == NULL_CODE, none_rank, rank)
        return ident, len(pool) + 1, rank
    uniq, inv = np.unique(col.values, return_inverse=True)
    inv = inv.astype(np.int64)
    return inv, len(uniq), inv


def _combine(
    ids: Sequence[np.ndarray], cards: Sequence[int]
) -> Tuple[np.ndarray, int]:
    """Fuse per-key identity ids into one dense id per row (plus the bound).

    Re-densifies after every key so the running product of cardinalities
    can never overflow int64.
    """
    combined = ids[0]
    card = cards[0]
    for nxt, nk in zip(ids[1:], cards[1:]):
        if card * nk >= np.iinfo(np.int64).max // 2:
            uniq, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64)
            card = len(uniq)
        combined = combined * nk + nxt
        card = card * nk
    return combined, card


@dataclass(frozen=True)
class Factorized:
    """Dense group ids for a set of key columns.

    ``gids[i]`` is the output-ordered group (0..n_groups-1) of row ``i``;
    ``first_idx[g]`` is the first row belonging to output group ``g``.
    """

    gids: np.ndarray
    n_groups: int
    first_idx: np.ndarray


def factorize(key_columns: Sequence[Column]) -> Factorized:
    """Multi-key factorization in canonical group order.

    Group numbering reproduces the legacy ordering exactly: groups sorted
    by their key tuples ascending with ``None`` treated as ``""``, ties
    (None vs "") broken by first occurrence.  NaN FLOAT keys collapse into
    a single group (the legacy dict keyed on NaN objects was unstable
    there; this is the one documented behavioral deviation).
    """
    with obs.span(
        "kernel.factorize",
        metric="kernel.factorize_ms",
        rows=len(key_columns[0]),
        n_keys=len(key_columns),
    ) as span:
        fact = _factorize_impl(key_columns)
        span.set(groups=fact.n_groups)
        return fact


def _factorize_impl(key_columns: Sequence[Column]) -> Factorized:
    n = len(key_columns[0])
    if n == 0:
        return Factorized(
            np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.intp)
        )
    ids: List[np.ndarray] = []
    cards: List[int] = []
    ranks: List[np.ndarray] = []
    for col in key_columns:
        ident, card, rank = _identity_and_rank(col)
        ids.append(ident)
        cards.append(card)
        ranks.append(rank)
    combined, card = _combine(ids, cards)
    if card <= max(4 * n, 1 << 16):
        # Dense-id fast path: counting instead of sorting.  First-occurrence
        # indices come from a reversed fancy assignment (the LAST write per
        # id wins, and reversed order makes that the first row).
        counts = np.bincount(combined, minlength=card)
        present = np.nonzero(counts)[0]
        lut = np.empty(card, dtype=np.int64)
        lut[present] = np.arange(len(present), dtype=np.int64)
        gids = lut[combined]
        first_full = np.empty(card, dtype=np.int64)
        first_full[combined[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        first_idx = first_full[present]
    else:
        _, first_idx, gids = np.unique(
            combined, return_index=True, return_inverse=True
        )
        gids = gids.astype(np.int64)
    # order groups canonically: per-key rank at the group's first row,
    # first occurrence as the final tie-break (= sorted() stability over
    # the legacy dict's insertion order)
    sort_keys = [first_idx] + [r[first_idx] for r in reversed(ranks)]
    group_order = np.lexsort(tuple(sort_keys))
    pos = np.empty(len(group_order), dtype=np.int64)
    pos[group_order] = np.arange(len(group_order), dtype=np.int64)
    return Factorized(
        gids=pos[gids],
        n_groups=len(group_order),
        first_idx=first_idx[group_order].astype(np.intp),
    )


def group_sorter(fact: Factorized) -> Tuple[np.ndarray, np.ndarray]:
    """Stable row order grouping rows into contiguous runs, plus run starts.

    Returns ``(order, starts)`` where ``order`` is a permutation of row
    indices sorted by group id (ties keep row order, so each run is in
    ascending row order — the same sequence the legacy engine fed each
    aggregator) and ``starts[g]`` is the offset of group ``g``'s run.
    """
    gids = fact.gids
    if fact.n_groups <= 1 << 16:
        # numpy's stable argsort radix-sorts 16-bit keys (~4x faster than
        # the 64-bit comparison sort); group counts are almost always small.
        gids = gids.astype(np.uint16)
    order = np.argsort(gids, kind="stable")
    counts = np.bincount(fact.gids, minlength=fact.n_groups)
    starts = (np.cumsum(counts) - counts).astype(np.intp)
    return order, starts


def segment_reduce(
    values: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    fn: Callable[[np.ndarray], object],
) -> list:
    """Apply ``fn`` to each group's contiguous value run (one call per group).

    The run passed to ``fn`` holds exactly the values the legacy per-group
    loop passed it, in the same order, so any numpy reduction produces
    bit-identical floats.  Cost is O(groups) Python calls instead of the
    legacy O(rows) dict build + O(groups x metrics) fancy indexing.
    """
    sorted_vals = values[order]
    n = len(order)
    bounds = np.append(starts, n)
    return [
        fn(sorted_vals[bounds[g] : bounds[g + 1]]) for g in range(len(starts))
    ]


# -- exact vectorized reductions (no per-group Python call) ----------------


def group_count(fact: Factorized) -> np.ndarray:
    return np.bincount(fact.gids, minlength=fact.n_groups).astype(np.int64)


def group_min(values: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """NaN-ignoring per-group minimum (all-NaN group -> NaN)."""
    return np.fmin.reduceat(values.astype(np.float64)[order], starts)


def group_max(values: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """NaN-ignoring per-group maximum (all-NaN group -> NaN)."""
    return np.fmax.reduceat(values.astype(np.float64)[order], starts)


def group_nunique(fact: Factorized, col: Column) -> np.ndarray:
    """Distinct values per group; None/NaN each count as one value.

    Counts distinct (group, value-id) pairs with one ``np.unique`` — NaNs
    are canonicalized to a single id (fixing the legacy set-of-floats NaN
    multiplicity bug), and STR columns use their dictionary codes directly.
    """
    if col.dtype is DType.STR:
        vid = col.codes.astype(np.int64) + 1
        card = len(col.pool) + 1
    else:
        uniq, inv = np.unique(col.values, return_inverse=True)
        vid = inv.astype(np.int64)
        card = max(len(uniq), 1)
    pairs = np.unique(fact.gids * card + vid)
    return np.bincount(pairs // card, minlength=fact.n_groups).astype(np.int64)


@dataclass(frozen=True)
class GroupMoments:
    """Exact per-group moments of one value stream (:func:`group_moments_exact`).

    An empty (all-NaN) group has count 0, empty sums, min ``+inf`` and
    max ``-inf``: the identities of a merge, so states built from it
    merge like any other.
    """

    counts: np.ndarray  #: finite values per group (int64)
    sums: List[ExactSum]  #: canonical Σx per group
    sumsqs: List[ExactSum]  #: canonical Σx² per group
    mins: np.ndarray
    maxs: np.ndarray
    #: ``(groups, len(bounds) + 1)`` bucket counts when bounds were given
    buckets: Optional[np.ndarray] = None


def _first_zero_wins(vals: np.ndarray, gids: np.ndarray, extreme: np.ndarray) -> None:
    """Where a group's extreme is a zero, make it the run's first zero.

    ``0.0`` and ``-0.0`` compare equal, and numpy does not promise which
    one ``minimum``/``maximum`` return.  A running strict ``<`` (or
    ``>``) keeps the first value it saw, so the sign is the first zero's.
    """
    tied = extreme == 0.0
    if not tied.any():
        return
    zeros = np.flatnonzero(vals == 0.0)
    groups, first = np.unique(gids[zeros], return_index=True)
    hit = tied[groups]
    extreme[groups[hit]] = vals[zeros[first[hit]]]


def group_moments_exact(
    values: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    bounds: Optional[Sequence[float]] = None,
) -> GroupMoments:
    """Exact per-group count, Σx, Σx², min, max and bucket counts.

    Group ``g`` is ``values[order[starts[g]:starts[g + 1]]]``; ``order``
    may repeat a row, so one row can sit in several groups.  NaNs are
    skipped; ±inf, or a sum that overflows, raises ``NumericsError``.
    Both sums are in the canonical :class:`ExactSum` form, so
    they depend only on the exact value: any partition of the same rows,
    in any order, merges to the same partials.  Each ``x*x`` is one IEEE
    multiplication, identical to the scalar product.  Min and max keep
    the first of tied zeros in run order, as a running strict comparison
    does.  ``bounds`` (inclusive upper edges, ascending) add bucket
    counts with one overflow bucket, bucketed as ``bisect_left``.  One
    pass for all groups: the Python work is one ``math.fsum`` chain per
    group and sum.
    """
    vals = np.asarray(values, dtype=np.float64)[np.asarray(order, dtype=np.int64)]
    n_groups = len(starts)
    gids = np.repeat(
        np.arange(n_groups, dtype=np.int64),
        np.diff(np.append(np.asarray(starts, dtype=np.int64), len(vals))),
    )
    finite = ~np.isnan(vals)
    if not finite.all():
        vals, gids = vals[finite], gids[finite]
    counts = np.bincount(gids, minlength=n_groups).astype(np.int64)
    ends = np.cumsum(counts)
    begins = ends - counts
    mins = np.full(n_groups, np.inf)
    maxs = np.full(n_groups, -np.inf)
    filled = np.flatnonzero(counts)
    if len(filled):
        mins[filled] = np.minimum.reduceat(vals, begins[filled])
        maxs[filled] = np.maximum.reduceat(vals, begins[filled])
        _first_zero_wins(vals, gids, mins)
        _first_zero_wins(vals, gids, maxs)
    flat = vals.tolist()
    with np.errstate(over="ignore"):  # an infinite square raises below
        squares = (vals * vals).tolist()
    runs = list(zip(begins.tolist(), ends.tolist()))
    buckets = None
    if bounds is not None:
        width = len(bounds) + 1
        slot = np.searchsorted(np.asarray(bounds, dtype=np.float64), vals, side="left")
        buckets = np.bincount(
            gids * width + slot, minlength=n_groups * width
        ).reshape(n_groups, width)
    return GroupMoments(
        counts=counts,
        sums=[ExactSum.from_values(flat[a:b]) for a, b in runs],
        sumsqs=[ExactSum.from_values(squares[a:b]) for a, b in runs],
        mins=mins,
        maxs=maxs,
        buckets=buckets,
    )


def _run_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    return np.diff(np.append(starts, n))


#: Named aggregators served by :func:`group_reduce_batched` — the
#: size-class-batched kernel that is bit-identical to the legacy
#: per-group numpy calls (unlike the reduceat throughput kernels above).
BATCHED_AGGS = ("sum", "mean", "median", "std", "p25", "p75", "p90", "p95", "p99")

_PERCENTILE_Q = {"p25": 25.0, "p75": 75.0, "p90": 90.0, "p95": 95.0, "p99": 99.0}


def _size_classes(lengths: np.ndarray):
    """Yield ``(size, group_indices)`` for each distinct run length."""
    for size in np.unique(lengths):
        yield int(size), np.nonzero(lengths == size)[0]


def group_reduce_batched(
    values: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    how: str,
) -> np.ndarray:
    """Per-group reduction, batched by group size class — bit-identical to
    calling the legacy :data:`~repro.tables.groupby.AGGREGATORS` function
    once per group run.

    Groups sharing a run length are stacked into one ``(g, L)`` matrix and
    reduced with a single ``axis=1`` numpy call, turning O(groups) Python
    calls into O(distinct sizes).  Identity holds because numpy's axis-1
    reductions evaluate each row exactly as the 1-D call would:

    * ``sum``/``mean`` — ``np.nansum``/``np.nanmean`` over the raw runs
      (NaNs stay in place, zeroed/dropped the same way per row);
    * ``std``/``median``/percentiles — each run's NaNs are first
      stable-partitioned to its end (the 1-D ``nanmedian``/
      ``nanpercentile`` paths compact NaNs the same way, and ``np.std``/
      order statistics are order-invariant on the remaining multiset),
      then groups are re-batched by *valid* count.  ``std`` with fewer
      than 2 valid values and ``median``/percentiles with none yield NaN,
      matching the legacy aggregators.
    """
    if how not in BATCHED_AGGS:
        raise ValueError(f"no batched kernel for {how!r}; use segment_reduce")
    n_groups = len(starts)
    out = np.full(n_groups, np.nan, dtype=np.float64)
    if n_groups == 0:
        return out
    sorted_vals = values.astype(np.float64)[order]
    n = len(sorted_vals)
    lengths = _run_lengths(starts, n)
    if how in ("sum", "mean"):
        reducer = np.nansum if how == "sum" else np.nanmean
        for size, rows in _size_classes(lengths):
            m = sorted_vals[starts[rows][:, None] + np.arange(size)]
            out[rows] = reducer(m, axis=1)
        return out
    # NaN-compacting path: stable-partition each run's NaNs to its end so
    # the valid prefix keeps row order, then batch groups by valid count.
    nan = np.isnan(sorted_vals)
    gids_sorted = np.repeat(np.arange(n_groups, dtype=np.int64), lengths)
    part = np.argsort(gids_sorted * 2 + nan, kind="stable")
    packed = sorted_vals[part]
    n_valid = lengths - np.add.reduceat(nan.astype(np.int64), starts)
    q = _PERCENTILE_Q.get(how)
    for size, rows in _size_classes(n_valid):
        if size == 0 or (how == "std" and size < 2):
            continue
        m = packed[starts[rows][:, None] + np.arange(size)]
        if how == "std":
            out[rows] = np.std(m, axis=1, ddof=1)
        elif how == "median":
            out[rows] = np.median(m, axis=1)
        else:
            out[rows] = np.percentile(m, q, axis=1)
    return out


def sort_ranks(col: Column, descending: bool = False) -> np.ndarray:
    """Dense sortable ranks for one column, stable under ``descending``.

    Ascending ranks reproduce the legacy ``sort_by`` order exactly
    (``None`` canonicalized to ``""``).  For descending sorts the ranks are
    negated — unlike the old ``order[::-1]``, a stable lexsort over negated
    ranks keeps tied rows in their original order.
    """
    _, _, rank = _identity_and_rank(col)
    return -rank if descending else rank
