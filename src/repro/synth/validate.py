"""Dataset self-validation: invariants every generated dataset must hold.

Run after generation (``repro validate`` or :func:`validate_dataset`) to
catch configuration mistakes — a custom topology without site coverage, a
calibration edit that breaks marginals — before analyses silently produce
nonsense.  Each check appends a :class:`CheckResult`; the report as a whole
passes only when every check does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.periods import PERIOD_NAMES
from repro.netbase.ipaddr import IPv4Address
from repro.synth.generator import Dataset
from repro.tables.expr import col
from repro.traceroute import pathrecord

__all__ = ["CheckResult", "ValidationReport", "validate_dataset"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "ok " if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass
class ValidationReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = [str(c) for c in self.checks]
        lines.append(
            f"{'PASSED' if self.passed else 'FAILED'} "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)"
        )
        return "\n".join(lines)


def validate_dataset(dataset: Dataset, sample: int = 2000) -> ValidationReport:
    """Check structural and statistical invariants of a generated dataset."""
    report = ValidationReport()
    ndt, traces = dataset.ndt, dataset.traces

    def check(name: str, passed: bool, detail: str) -> None:
        report.checks.append(CheckResult(name, bool(passed), detail))

    # -- structural ---------------------------------------------------------
    ndt_ids = set(ndt.column("test_id").to_list())
    trace_ids = set(traces.column("test_id").to_list())
    check(
        "ndt-trace pairing",
        ndt_ids == trace_ids,
        f"{len(ndt_ids)} NDT ids vs {len(trace_ids)} trace ids",
    )
    check(
        "test ids unique",
        len(ndt_ids) == ndt.n_rows,
        f"{ndt.n_rows} rows, {len(ndt_ids)} distinct ids",
    )

    periods = dataset.periods
    in_window = 0
    ordinals = set()
    for p in periods.values():
        ordinals.update(p.ordinals())
    days = ndt.column("day").values
    in_window = int(np.isin(days, np.fromiter(ordinals, dtype=np.int64)).sum())
    check(
        "days inside study windows",
        in_window == ndt.n_rows,
        f"{in_window}/{ndt.n_rows} rows in-window",
    )

    # -- metric sanity ----------------------------------------------------------
    tput = ndt.column("tput_mbps").values
    rtt = ndt.column("min_rtt_ms").values
    loss = ndt.column("loss_rate").values
    check("throughput positive", bool((tput > 0).all()), f"min={tput.min():.3f}")
    check("rtt positive", bool((rtt > 0).all()), f"min={rtt.min():.3f}")
    check(
        "loss in unit interval",
        bool(((loss >= 0) & (loss <= 1)).all()),
        f"range=[{loss.min():.4f}, {loss.max():.4f}]",
    )

    # -- geolocation -----------------------------------------------------------
    missing = ndt.filter(col("city").isnull()).n_rows / ndt.n_rows
    expected = dataset.config.missing_rate
    check(
        "geo missing fraction near configured rate",
        abs(missing - expected) < max(0.06, expected),
        f"measured {missing:.3f} vs configured {expected:.3f}",
    )

    # -- attribution consistency (sampled) ----------------------------------------
    step = max(1, ndt.n_rows // sample)
    iplayer = dataset.topology.iplayer
    mismatches = 0
    checked = 0
    client_ips = ndt.column("client_ip").values
    asns = ndt.column("asn").values
    for i in range(0, ndt.n_rows, step):
        checked += 1
        if iplayer.as_of_ip(IPv4Address.parse(client_ips[i])) != asns[i]:
            mismatches += 1
    check(
        "client IPs belong to their AS",
        mismatches == 0,
        f"{mismatches}/{checked} sampled mismatches",
    )

    # -- trace endpoints (sampled) --------------------------------------------------
    bad_traces = 0
    t_client = traces.column("client_ip").values
    t_paths = traces.column("path").values
    step = max(1, traces.n_rows // sample)
    for i in range(0, traces.n_rows, step):
        hops = pathrecord.split(t_paths[i])
        if not hops or hops[-1] != t_client[i]:
            bad_traces += 1
    check("traces end at the client", bad_traces == 0, f"{bad_traces} bad traces")

    # -- period coverage ---------------------------------------------------------
    if dataset.config.include_2021:
        empty_periods = [
            name
            for name in PERIOD_NAMES
            if not np.isin(
                days, np.fromiter(periods[name].ordinals(), dtype=np.int64)
            ).any()
        ]
        check(
            "every study period populated",
            not empty_periods,
            f"empty: {empty_periods}" if empty_periods else "all four populated",
        )

    return report
