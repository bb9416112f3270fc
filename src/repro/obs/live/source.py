"""The replay source: a day-ordered NDT stream cut into batches.

The live daemon does not read tables; it pulls :class:`Batch` objects —
one day's rows (or a chunk of them) already grouped into aggregation
scopes — from a :class:`ReplaySource` wrapped around the synthetic NDT
table (:data:`repro.ndt.measurement.LIVE_STREAM_COLUMNS` is the
contract).  The cut points are *only* a throughput knob: the exact
aggregation downstream guarantees any ``batch_rows`` produces the same
bytes, and the determinism suite holds it to that.

A day with zero tests yields no batch, but it still ticks: the daemon's
clock (:class:`~repro.obs.live.daemon.SimulatedClock`) closes every day
of the window, and a silent day is exactly what the volume-collapse rule
needs to see.

The source is deterministic, so it fixes the aggregator's state at every
day boundary: a resumed daemon rebuilds that state by replaying the
source again, and :attr:`ReplaySource.fingerprint` keys its checkpoints
to the streamed columns' content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.ndt.measurement import LIVE_STREAM_COLUMNS
from repro.obs.lineage import fingerprint_table
from repro.obs.live.window import ScopeKey
from repro.tables.column import NULL_CODE
from repro.tables.table import Table
from repro.util.errors import ReproError
from repro.util.timeutil import Day

__all__ = ["Batch", "ReplaySource", "STUDY_START", "STUDY_END"]

#: Default replay window: the paper's 2022 study timeline
#: (54 prewar + 54 wartime days = the 108-day replay).
STUDY_START = "2022-01-01"
STUDY_END = "2022-04-18"


@dataclass(frozen=True)
class Batch:
    """One chunk of one day's rows, pre-grouped into scopes.

    ``scope_rows[k]`` holds indices into the metric arrays for
    ``scopes[k]``; the national scope owns every row, the others slice
    by label (rows with missing geo land only in national/asn/site).
    """

    day: int
    tput: np.ndarray
    rtt: np.ndarray
    loss: np.ndarray
    scopes: Tuple[ScopeKey, ...]
    scope_rows: Tuple[np.ndarray, ...]

    @property
    def n_rows(self) -> int:
        return len(self.tput)


class ReplaySource:
    """Replays an NDT table's study window day by day, in batches.

    Rows keep their table order within a day, so a given
    ``(start, end, batch_rows)`` slicing is fully deterministic.
    ``fingerprint`` is the content digest of the table's
    :data:`LIVE_STREAM_COLUMNS` (:func:`repro.obs.lineage.fingerprint_table`).
    """

    def __init__(
        self,
        table: Table,
        start: str = STUDY_START,
        end: str = STUDY_END,
        batch_rows: int = 0,
    ):
        missing = [c for c in LIVE_STREAM_COLUMNS if c not in table]
        if missing:
            raise ReproError(f"table cannot be streamed; missing columns {missing}")
        if batch_rows < 0:
            raise ReproError(f"batch_rows must be >= 0, got {batch_rows}")
        self.start = Day.of(start).ordinal
        self.end = Day.of(end).ordinal
        if self.end < self.start:
            raise ReproError(f"replay window ends before it starts: {start}..{end}")
        self.batch_rows = batch_rows
        self.fingerprint = fingerprint_table(
            Table([table.column(name) for name in LIVE_STREAM_COLUMNS])
        )["fingerprint"]

        day = np.asarray(table.column("day").values, dtype=np.int64)
        keep = (day >= self.start) & (day <= self.end)
        idx = np.nonzero(keep)[0]
        # Stable day sort preserves table order inside each day.
        idx = idx[np.argsort(day[idx], kind="stable")]
        self._day = day[idx]
        self._tput = np.asarray(table.column("tput_mbps").values, dtype=np.float64)[idx]
        self._rtt = np.asarray(table.column("min_rtt_ms").values, dtype=np.float64)[idx]
        self._loss = np.asarray(table.column("loss_rate").values, dtype=np.float64)[idx]
        self._labels: Dict[str, Tuple[np.ndarray, List[Optional[str]]]] = {}
        for kind, col_name in (("oblast", "oblast"), ("city", "city"), ("site", "site")):
            col = table.column(col_name)
            codes = np.asarray(col.codes, dtype=np.int64)[idx]
            pool = [str(v) for v in col.pool]
            self._labels[kind] = (codes, pool)
        asn = np.asarray(table.column("asn").values, dtype=np.int64)[idx]
        asn_pool_vals, asn_codes = np.unique(asn, return_inverse=True)
        self._labels["asn"] = (
            asn_codes.astype(np.int64),
            [f"AS{int(v)}" for v in asn_pool_vals],
        )
        # Day run boundaries over the sorted rows.
        self._day_slices: Dict[int, Tuple[int, int]] = {}
        if len(self._day):
            boundaries = np.nonzero(np.diff(self._day))[0] + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [len(self._day)]))
            for s, e in zip(starts, ends):
                self._day_slices[int(self._day[s])] = (int(s), int(e))

    @property
    def n_rows(self) -> int:
        return len(self._day)

    def _batch(self, lo: int, hi: int, day: int) -> Batch:
        n = hi - lo
        scopes: List[ScopeKey] = [ScopeKey("national", "")]
        scope_rows: List[np.ndarray] = [np.arange(n, dtype=np.int64)]
        for kind in sorted(self._labels):
            codes, pool = self._labels[kind]
            chunk = codes[lo:hi]
            for code in np.unique(chunk):
                if code == NULL_CODE:
                    continue
                scopes.append(ScopeKey(kind, pool[int(code)]))
                scope_rows.append(np.nonzero(chunk == code)[0].astype(np.int64))
        return Batch(
            day=day,
            tput=self._tput[lo:hi],
            rtt=self._rtt[lo:hi],
            loss=self._loss[lo:hi],
            scopes=tuple(scopes),
            scope_rows=tuple(scope_rows),
        )

    def batches_for_day(self, day: int) -> Iterator[Batch]:
        """The day's rows as one batch, or ``batch_rows``-sized chunks."""
        span = self._day_slices.get(int(day))
        if span is None:
            return
        lo, hi = span
        step = self.batch_rows if self.batch_rows else (hi - lo)
        for s in range(lo, hi, step):
            yield self._batch(s, min(s + step, hi), int(day))
