"""The fault injector: deterministic per-row corruption of generated tables.

All randomness derives from one seed through :class:`repro.util.rng.RngHub`,
so a dirty dataset is exactly reproducible — tests can assert on the dirt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.faults.profiles import FaultProfile
from repro.tables.table import Table
from repro.traceroute import pathrecord
from repro.util.rng import RngHub

__all__ = ["FaultInjector", "InjectionSummary"]

#: The NDT metric columns a NULL/negative corruption can hit.
_NDT_METRICS = ("tput_mbps", "min_rtt_ms", "loss_rate")


@dataclass
class InjectionSummary:
    """How many rows each fault kind touched, per table."""

    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, n: int) -> None:
        if n:
            self.counts[kind] = self.counts.get(kind, 0) + int(n)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __str__(self) -> str:
        if not self.counts:
            return "fault injection: no rows touched"
        parts = ", ".join(f"{k} x{v}" for k, v in sorted(self.counts.items()))
        return f"fault injection: {self.total} corruptions ({parts})"


class FaultInjector:
    """Dirties NDT/traceroute tables per a :class:`FaultProfile`.

    Corruption kinds are sampled independently per row, so one row can be
    both clock-skewed and metric-NaN — exactly the compounding mess real
    extracts exhibit.
    """

    def __init__(self, profile: FaultProfile, seed: int = 0):
        self.profile = profile
        self._hub = RngHub(seed)

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _pick(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
        """Indices of rows hit by a fault of probability ``rate``."""
        if rate <= 0.0 or n == 0:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(rng.random(n) < rate)[0]

    @staticmethod
    def _columns(table: Table) -> Dict[str, np.ndarray]:
        return {name: table.column(name).values.copy() for name in table.column_names}

    @staticmethod
    def _rebuild(table: Table, data: Dict[str, np.ndarray]) -> Table:
        dtypes = {f.name: f.dtype for f in table.schema.fields}
        return Table.from_dict(data, dtypes=dtypes)

    def _skew_days(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Signed skews large enough that no study window (2021/2022) absorbs them."""
        magnitude = rng.integers(self.profile.skew_days, 2 * self.profile.skew_days, n)
        sign = rng.choice((-1, 1), n)
        return magnitude * sign

    # -- NDT ---------------------------------------------------------------
    def inject_ndt(self, ndt: Table) -> Tuple[Table, InjectionSummary]:
        """Return a dirtied copy of the NDT table plus what was done to it."""
        p = self.profile
        rng = self._hub.fresh("ndt")
        summary = InjectionSummary()
        data = self._columns(ndt)
        n = ndt.n_rows

        hit = self._pick(rng, n, p.nan_metric_rate)
        for i in hit:
            data[rng.choice(_NDT_METRICS)][i] = np.nan
        summary.add("ndt:nan-metric", len(hit))

        hit = self._pick(rng, n, p.negative_metric_rate)
        for i in hit:
            metric = rng.choice(("tput_mbps", "min_rtt_ms"))
            data[metric][i] = -abs(data[metric][i]) or -1.0
        summary.add("ndt:negative-metric", len(hit))

        hit = self._pick(rng, n, p.geo_drop_rate)
        data["city"][hit] = None
        data["oblast"][hit] = None
        summary.add("ndt:geo-dropped", len(hit))

        hit = self._pick(rng, n, p.clock_skew_rate)
        if len(hit):
            # Shift the machine-readable day but leave `date`/`year` stale,
            # as a skewed exporter clock would.
            data["day"][hit] = data["day"][hit] + self._skew_days(rng, len(hit))
        summary.add("ndt:clock-skew", len(hit))

        dup = self._pick(rng, n, p.duplicate_rate)
        if len(dup):
            data = {name: np.concatenate([col, col[dup]]) for name, col in data.items()}
        summary.add("ndt:duplicate-uuid", len(dup))

        return self._rebuild(ndt, data), summary

    # -- traceroutes --------------------------------------------------------
    def inject_traces(self, traces: Table) -> Tuple[Table, InjectionSummary]:
        """Return a dirtied copy of the traceroute table plus a summary."""
        p = self.profile
        rng = self._hub.fresh("traces")
        summary = InjectionSummary()
        data = self._columns(traces)
        n = traces.n_rows

        hit = self._pick(rng, n, p.hop_truncation_rate)
        for i in hit:
            hops = pathrecord.split(data["path"][i])
            if len(hops) < 2:
                continue
            keep = int(rng.integers(1, len(hops)))
            data["path"][i] = pathrecord.join(hops[:keep])
            as_hops = pathrecord.split(data["as_path"][i])
            if len(as_hops) > 1:
                data["as_path"][i] = pathrecord.join(as_hops[:-1])
            # n_hops left stale: the recorded count no longer matches the
            # truncated hop list, which is how the dirt is detectable.
        summary.add("trace:truncated-hops", len(hit))

        hit = self._pick(rng, n, p.clock_skew_rate)
        if len(hit):
            data["day"][hit] = data["day"][hit] + self._skew_days(rng, len(hit))
        summary.add("trace:clock-skew", len(hit))

        dup = self._pick(rng, n, p.duplicate_rate)
        if len(dup):
            data = {name: np.concatenate([col, col[dup]]) for name, col in data.items()}
        summary.add("trace:duplicate-uuid", len(dup))

        return self._rebuild(traces, data), summary

    def inject_dataset(self, dataset) -> Tuple[object, InjectionSummary]:
        """Dirty both tables of a :class:`repro.synth.generator.Dataset`."""
        from dataclasses import replace

        ndt, s1 = self.inject_ndt(dataset.ndt)
        traces, s2 = self.inject_traces(dataset.traces)
        merged = InjectionSummary()
        for s in (s1, s2):
            for kind, count in s.counts.items():
                merged.add(kind, count)
        return replace(dataset, ndt=ndt, traces=traces), merged
