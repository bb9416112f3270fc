"""Table 2 and Figure 9: per-connection path diversity and its performance cost.

A *connection* is a (client IP, server IP) pair; a *path* is the traceroute
IP-address sequence serving it.  Table 2 reports, for the 1000 connections
with the most tests in each period, the average number of distinct paths
and of tests per connection.  Figure 9 (Appendix D) buckets persistent
connections by how many *more* paths they used during wartime and shows the
corresponding throughput drop and loss increase.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.common import clean_ndt, clean_traces, slice_period
from repro.analysis.periods import PERIOD_NAMES
from repro.stats.welch import welch_t_test
from repro.tables import kernels
from repro.tables.join import join
from repro.tables.schema import Cols, DType
from repro.tables.table import Table
from repro.util.errors import AnalysisError

__all__ = [
    "connection_stats",
    "path_count_table",
    "path_performance",
    "path_performance_correlation",
]

ConnKey = Tuple[str, str]


def connection_stats(traces: Table) -> Dict[ConnKey, Dict[str, int]]:
    """Per-connection test and distinct-path counts for a slice of traces.

    Vectorized over group ids; the result dict lists connections in first
    appearance order, matching the old per-row accumulation.
    """
    client_col = traces.column("client_ip")
    server_col = traces.column("server_ip")
    fact = kernels.factorize([client_col, server_col])
    tests = kernels.group_count(fact)
    n_paths = kernels.group_nunique(fact, traces.column("path"))
    client = client_col.values
    server = server_col.values
    stats: Dict[ConnKey, Dict[str, int]] = {}
    for g in np.argsort(fact.first_idx):
        i = fact.first_idx[g]
        stats[(client[i], server[i])] = {
            "tests": int(tests[g]),
            "paths": int(n_paths[g]),
        }
    return stats


def path_count_table(traces: Table, top_k: int = 1000) -> Table:
    """Table 2: average paths/connection and tests/connection per period.

    For each study period, the ``top_k`` connections by test count are
    selected and their path/test counts averaged.  Output columns:
    ``period``, ``n_connections``, ``paths_per_conn``, ``tests_per_conn``.
    """
    if top_k < 1:
        raise AnalysisError("top_k must be >= 1")
    traces = clean_traces(traces, "path_count_table")
    rows = []
    for period in PERIOD_NAMES:
        sliced = slice_period(traces, period)
        if sliced.n_rows == 0:
            raise AnalysisError(f"no traceroutes in period {period!r}")
        stats = connection_stats(sliced)
        busiest = sorted(stats.values(), key=lambda e: -e["tests"])[:top_k]
        rows.append(
            {
                Cols.PERIOD: period,
                "n_connections": len(busiest),
                "paths_per_conn": float(np.mean([e["paths"] for e in busiest])),
                "tests_per_conn": float(np.mean([e["tests"] for e in busiest])),
            }
        )
    return Table.from_rows(rows)


def _expected_distinct(path_counts: Sequence[int], depth: int) -> float:
    """Expected distinct paths when subsampling ``depth`` tests (rarefaction).

    Standard species-rarefaction estimator: with ``c_i`` tests on path
    ``i`` out of ``T`` total, the chance path ``i`` appears in a random
    ``depth``-subset is ``1 - C(T-c_i, depth)/C(T, depth)``.
    """
    total = sum(path_counts)
    if depth >= total:
        return float(len(path_counts))
    if depth < 1:
        raise AnalysisError(f"rarefaction depth must be >= 1, got {depth}")

    def log_comb(n: int, k: int) -> float:
        if k < 0 or k > n:
            return float("-inf")
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

    log_denominator = log_comb(total, depth)
    expected = 0.0
    for c in path_counts:
        expected += 1.0 - math.exp(log_comb(total - c, depth) - log_denominator)
    return expected


def _seq_sum(run: np.ndarray) -> float:
    """Strict left-to-right float accumulation (pairwise-free).

    Per-connection runs are a handful of tests each, so the interpreter
    cost is negligible; what matters is reproducing the pre-vectorization
    ``total += v`` loop exactly.
    """
    total = 0.0
    for v in run:
        total += v
    return total


def _period_connection_stats(sliced: Table) -> Dict[ConnKey, dict]:
    """Per-connection stats for one period slice, vectorized.

    Returns ``{(client_ip, server_ip): {"tests", "tput", "loss", "paths"}}``
    where ``paths`` maps each distinct traceroute path to its test count.
    Connections appear in first-occurrence order and the tput/loss sums
    accumulate left to right within each run (``_seq_sum``, not numpy's
    pairwise summation), so the floats match the old ``+=`` loop bit for
    bit — Figure 9's recorded deltas and p-values depend on it.
    """
    client_col = sliced.column("client_ip")
    server_col = sliced.column("server_ip")
    fact = kernels.factorize([client_col, server_col])
    order, starts = kernels.group_sorter(fact)
    tests = kernels.group_count(fact)
    tput_sum = kernels.segment_reduce(
        sliced.column(Cols.TPUT).values, order, starts, _seq_sum
    )
    loss_sum = kernels.segment_reduce(
        sliced.column(Cols.LOSS_RATE).values, order, starts, _seq_sum
    )
    client = client_col.values
    server = server_col.values
    out: Dict[ConnKey, dict] = {}
    for g in np.argsort(fact.first_idx):
        i = fact.first_idx[g]
        out[(client[i], server[i])] = {
            "tests": int(tests[g]),
            "tput": float(tput_sum[g]),
            "loss": float(loss_sum[g]),
            "paths": {},
        }
    # per-(connection, path) test counts, in path first-appearance order
    path_col = sliced.column("path")
    fact3 = kernels.factorize([client_col, server_col, path_col])
    counts3 = kernels.group_count(fact3)
    paths = path_col.values
    for g in np.argsort(fact3.first_idx):
        i = fact3.first_idx[g]
        out[(client[i], server[i])]["paths"][paths[i]] = int(counts3[g])
    return out


def _persistent_connections(
    ndt: Table, traces: Table, min_tests: int, where: str
) -> List[Tuple[dict, dict]]:
    """(prewar, wartime) stats of every persistent connection.

    A connection is persistent with at least ``min_tests`` tests in each
    period.  Both tables pass their guards under the caller's ``where``
    name; the pairs come in the connections' first-seen order.
    """
    ndt = clean_ndt(ndt, where)
    traces = clean_traces(traces, where)
    merged = join(
        traces.select(["test_id", "client_ip", "server_ip", "path", "day"]),
        ndt.select(["test_id", Cols.TPUT, Cols.LOSS_RATE]),
        on="test_id",
    )
    per_conn: Dict[ConnKey, Dict[str, dict]] = {}
    for period in ("prewar", "wartime"):
        for key, stats in _period_connection_stats(
            slice_period(merged, period)
        ).items():
            per_conn.setdefault(key, {})[period] = stats
    return [
        (entry["prewar"], entry["wartime"])
        for entry in per_conn.values()
        if "prewar" in entry
        and "wartime" in entry
        and entry["prewar"]["tests"] >= min_tests
        and entry["wartime"]["tests"] >= min_tests
    ]


def path_performance_correlation(
    ndt: Table, traces: Table, min_tests: int = 5
) -> Dict[str, object]:
    """Quantified Figure 9: rank correlation of Δpaths with Δtput / Δloss.

    Extension of the paper's Appendix-D reading ("mild correlation"):
    Spearman's rho over persistent connections, expected mildly negative
    for throughput and mildly positive for loss.  Path counts are
    rarefied to equal sampling depth per connection so test-volume shifts
    do not masquerade as path-diversity changes.  Returns
    ``{"tput": CorrelationResult, "loss": CorrelationResult, "n": int}``.
    """
    from repro.stats.correlation import spearman

    d_paths, d_tput, d_loss = [], [], []
    for pre, war in _persistent_connections(
        ndt, traces, min_tests, "path_performance_correlation"
    ):
        depth = min(pre["tests"], war["tests"])
        d_paths.append(
            _expected_distinct(list(war["paths"].values()), depth)
            - _expected_distinct(list(pre["paths"].values()), depth)
        )
        d_tput.append(war["tput"] / war["tests"] - pre["tput"] / pre["tests"])
        d_loss.append(war["loss"] / war["tests"] - pre["loss"] / pre["tests"])
    if len(d_paths) < 3:
        raise AnalysisError(
            "too few persistent connections for a correlation; lower min_tests"
        )
    return {
        "tput": spearman(d_paths, d_tput),
        "loss": spearman(d_paths, d_loss),
        "n": len(d_paths),
    }


def path_performance(
    ndt: Table, traces: Table, min_tests: int = 10
) -> Table:
    """Figure 9: performance change bucketed by change in paths used.

    Considers connections with at least ``min_tests`` tests in *both* the
    prewar and wartime periods (the paper's persistence filter).  For each
    bucket of Δpaths (wartime paths − prewar paths) reports the mean change
    in throughput and loss across its connections, with Welch p-values
    against the Δpaths == 0 bucket.

    Output columns: ``d_paths``, ``n_connections``, ``d_tput_mbps``,
    ``d_loss``, ``p_tput``, ``p_loss``.
    """
    buckets: Dict[int, Dict[str, list]] = {}
    for pre, war in _persistent_connections(
        ndt, traces, min_tests, "path_performance"
    ):
        d_paths = len(war["paths"]) - len(pre["paths"])
        bucket = buckets.setdefault(d_paths, {"d_tput": [], "d_loss": []})
        bucket["d_tput"].append(war["tput"] / war["tests"] - pre["tput"] / pre["tests"])
        bucket["d_loss"].append(war["loss"] / war["tests"] - pre["loss"] / pre["tests"])

    if not buckets:
        raise AnalysisError(
            f"no connection had >= {min_tests} tests in both periods; "
            "generate a larger dataset or lower min_tests"
        )
    reference = buckets.get(0)
    rows = []
    for d_paths in sorted(buckets):
        bucket = buckets[d_paths]
        row = {
            "d_paths": d_paths,
            "n_connections": len(bucket["d_tput"]),
            "d_tput_mbps": float(np.mean(bucket["d_tput"])),
            "d_loss": float(np.mean(bucket["d_loss"])),
            "p_tput": float("nan"),
            "p_loss": float("nan"),
        }
        if (
            reference is not None
            and d_paths != 0
            and len(bucket["d_tput"]) >= 2
            and len(reference["d_tput"]) >= 2
        ):
            row["p_tput"] = welch_t_test(reference["d_tput"], bucket["d_tput"]).p_value
            row["p_loss"] = welch_t_test(reference["d_loss"], bucket["d_loss"]).p_value
        rows.append(row)
    return Table.from_rows(
        rows,
        dtypes={
            "d_paths": DType.INT,
            "n_connections": DType.INT,
            "d_tput_mbps": DType.FLOAT,
            "d_loss": DType.FLOAT,
            "p_tput": DType.FLOAT,
            "p_loss": DType.FLOAT,
        },
    )
