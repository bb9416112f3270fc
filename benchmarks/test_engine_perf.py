"""Engine perf baseline: the vectorized kernels vs the legacy row loops.

Times the columnar engine's hot relational operations (group-by, join,
filter, sort, string encode/decode) against the verbatim pre-vectorization
implementations kept in ``repro.tables._legacy``, on synthetic tables of
10^5-10^6 rows shaped like the NDT workload (a few hundred distinct string
keys over millions of rows).  Each ``engine.*`` row's ``seconds`` is the
vectorized path's time, with the legacy time (``before_s``) and the
speedup beside it; the rows land in ``BENCH_engine.json`` at the repo root
and are guarded here with generous wall-clock bounds plus the headline
requirement: **>= 5x on group-by at 10^6 rows**.

Each comparison also asserts the two implementations produce identical
tables, so the speedup numbers can never drift away from correctness.
"""

import numpy as np
import pytest

from bench_common import emit

from repro.obs.bench import best_of, write_bench
from repro.tables import col
from repro.tables._legacy import legacy_aggregate, legacy_join, legacy_sort_by
from repro.tables.column import Column
from repro.tables.join import join
from repro.tables.plan import global_plan_cache
from repro.tables.schema import DType
from repro.tables.table import Table

N_BIG = 1_000_000
N_MID = 100_000

#: Required speedup for the headline case (group-by at 10^6 rows).
MIN_GROUPBY_SPEEDUP = 5.0
#: Multi-key group-by must beat the row loop by this much (batched kernels).
MIN_MULTIKEY_SPEEDUP = 3.0
#: Fused filter->aggregate vs eager filter-then-aggregate on a wide table.
MIN_FUSED_SPEEDUP = 1.5
#: Second collect of a cached plan vs a cold execution.
MIN_REUSE_SPEEDUP = 3.0
#: Generous absolute bounds on the vectorized path (regression guards).
MAX_AFTER_SECONDS = {
    "groupby_mean_1e6": 3.0,
    "groupby_multikey_1e5": 2.0,
    "join_inner_1e5": 2.0,
    "filter_isin_1e6": 2.0,
    "sort_by_1e6": 5.0,
    "encode_decode_1e6": 6.0,
    "plan_fused_filter_agg": 2.0,
    "groupby_multikey_fused": 2.0,
    "subplan_reuse": 1.0,
}


def _speedup_row(before, after, rows, **meta):
    """An ``engine.*`` row: the vectorized time, the legacy time, the ratio."""
    return {
        "seconds": after, "rows": rows, **meta,
        "before_s": before, "speedup": before / after,
    }


def _assert_identical(actual: Table, expected: Table):
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        a, e = actual.column(name), expected.column(name)
        assert a.dtype is e.dtype
        if e.dtype is DType.STR:
            assert a.to_list() == e.to_list()
        else:
            av = np.ascontiguousarray(a.values)
            ev = np.ascontiguousarray(e.values)
            assert av.tobytes() == ev.tobytes(), f"column {name} differs"


@pytest.fixture(scope="module")
def big_table():
    rng = np.random.Generator(np.random.PCG64(20220224))
    cities = np.array([f"city_{i:03d}" for i in range(300)], dtype=object)
    asns = rng.integers(0, 40, N_BIG)
    return Table.from_dict(
        {
            "k": cities[rng.integers(0, len(cities), N_BIG)].tolist(),
            "k2": asns,
            "v": rng.normal(50.0, 20.0, N_BIG),
        },
        dtypes={"k": DType.STR, "k2": DType.INT, "v": DType.FLOAT},
    )


@pytest.fixture(scope="module")
def wide_table():
    """The planner workload: 16 value columns so projection matters."""
    rng = np.random.Generator(np.random.PCG64(20220301))
    cities = np.array([f"city_{i:03d}" for i in range(300)], dtype=object)
    data = {
        "k": cities[rng.integers(0, len(cities), N_MID)].tolist(),
        "k2": rng.integers(0, 40, N_MID),
    }
    dtypes = {"k": DType.STR, "k2": DType.INT}
    for j in range(16):
        name = f"v{j:02d}"
        data[name] = rng.normal(50.0, 20.0, N_MID)
        dtypes[name] = DType.FLOAT
    return Table.from_dict(data, dtypes=dtypes)


@pytest.fixture(scope="module")
def results():
    """Accumulates benchmark rows; dumped to BENCH_engine.json at the end."""
    return {}


class TestEnginePerf:
    def test_groupby_1e6(self, big_table, results):
        spec = {"m": ("v", "mean"), "n": ("v", "count"), "s": ("v", "sum")}
        before, legacy = best_of(
            lambda: legacy_aggregate(big_table, ["k"], spec), repeat=1
        )
        after, ours = best_of(lambda: big_table.group_by("k").aggregate(spec))
        _assert_identical(ours, legacy)
        results["engine.groupby_mean_1e6"] = _speedup_row(
            before, after, N_BIG, groups=ours.n_rows
        )
        assert after < MAX_AFTER_SECONDS["groupby_mean_1e6"]
        assert before / after >= MIN_GROUPBY_SPEEDUP, (
            f"group-by at 1e6 rows sped up only {before / after:.1f}x "
            f"(need >= {MIN_GROUPBY_SPEEDUP}x)"
        )

    def test_groupby_multikey_1e5(self, big_table, results):
        sub = big_table.head(N_MID)
        spec = {"m": ("v", "mean"), "sd": ("v", "std"), "u": ("v", "nunique")}
        before, legacy = best_of(
            lambda: legacy_aggregate(sub, ["k", "k2"], spec), repeat=1
        )
        after, ours = best_of(lambda: sub.group_by(["k", "k2"]).aggregate(spec))
        _assert_identical(ours, legacy)
        results["engine.groupby_multikey_1e5"] = _speedup_row(
            before, after, N_MID, groups=ours.n_rows
        )
        assert after < MAX_AFTER_SECONDS["groupby_multikey_1e5"]
        assert before / after >= MIN_MULTIKEY_SPEEDUP, (
            f"multi-key group-by sped up only {before / after:.1f}x "
            f"(need >= {MIN_MULTIKEY_SPEEDUP}x)"
        )

    def test_join_inner_1e5(self, big_table, results):
        left = big_table.head(N_MID).select(["k", "k2", "v"])
        rng = np.random.Generator(np.random.PCG64(7))
        right = Table.from_dict(
            {
                "k": [f"city_{i:03d}" for i in range(300)],
                "w": rng.normal(0.0, 1.0, 300),
            },
            dtypes={"k": DType.STR, "w": DType.FLOAT},
        )
        before, legacy = best_of(
            lambda: legacy_join(left, right, on="k"), repeat=1
        )
        after, ours = best_of(lambda: join(left, right, on="k"))
        _assert_identical(ours, legacy)
        results["engine.join_inner_1e5"] = _speedup_row(before, after, N_MID)
        assert after < MAX_AFTER_SECONDS["join_inner_1e5"]

    def test_filter_isin_1e6(self, big_table, results):
        col = big_table.column("k")
        allowed = {f"city_{i:03d}" for i in range(0, 300, 7)}
        values = col.values

        def legacy_isin():
            return np.fromiter(
                (v in allowed for v in values), dtype=bool, count=len(values)
            )

        before, legacy = best_of(legacy_isin, repeat=1)
        after, ours = best_of(lambda: col.isin(allowed))
        assert np.array_equal(ours, legacy)
        results["engine.filter_isin_1e6"] = _speedup_row(before, after, N_BIG)
        assert after < MAX_AFTER_SECONDS["filter_isin_1e6"]

    def test_sort_by_1e6(self, big_table, results):
        before, legacy = best_of(
            lambda: legacy_sort_by(big_table, ["k", "k2"]), repeat=1
        )
        after, ours = best_of(lambda: big_table.sort_by(["k", "k2"]))
        _assert_identical(ours, legacy)
        results["engine.sort_by_1e6"] = _speedup_row(before, after, N_BIG)
        assert after < MAX_AFTER_SECONDS["sort_by_1e6"]

    def test_encode_decode_1e6(self, big_table, results):
        # Encode: intern 1e6 python strings into int32 codes + pool.
        raw = big_table.column("k").to_list()
        encode_s, encoded = best_of(lambda: Column("k", raw, DType.STR), repeat=1)
        # Decode: materialize the object array back from codes (lazy+cached
        # in normal use; take() yields an undecoded copy to measure fresh).
        fresh = encoded.take(np.arange(len(encoded)))
        decode_s, _ = best_of(lambda: fresh.values, repeat=1)
        assert encoded.to_list() == raw
        results["engine.encode_decode_1e6"] = {
            "seconds": encode_s + decode_s,
            "rows": N_BIG,
            "encode_s": encode_s,
            "decode_s": decode_s,
            "pool_size": len(encoded.pool),
            "codes_bytes": int(encoded.codes.nbytes),
            "object_pointer_bytes": len(raw) * 8,
        }
        assert encode_s + decode_s < MAX_AFTER_SECONDS["encode_decode_1e6"]

    def test_plan_fused_filter_agg(self, wide_table, results):
        """Fused filter->aggregate gathers only the needed columns; the
        eager route materializes all 16 value columns through the filter."""
        pred = (col("v00") > 40.0) & (col("v00") <= 80.0)
        spec = {"m": ("v01", "mean"), "s": ("v01", "sum"), "n": ("v01", "count")}
        before, eager = best_of(
            lambda: wide_table.filter(pred).group_by("k").aggregate(spec)
        )
        plan = wide_table.lazy().filter(pred).group_by("k").aggregate(spec)
        after, fused = best_of(lambda: plan.collect(reuse=False))
        _assert_identical(fused, eager)
        results["engine.plan_fused_filter_agg"] = _speedup_row(
            before, after, N_MID, groups=fused.n_rows
        )
        assert after < MAX_AFTER_SECONDS["plan_fused_filter_agg"]
        assert before / after >= MIN_FUSED_SPEEDUP, (
            f"fused filter->agg sped up only {before / after:.2f}x "
            f"(need >= {MIN_FUSED_SPEEDUP}x)"
        )

    def test_groupby_multikey_fused(self, wide_table, results):
        """The multi-key fast path under a fused filter: codes sorted once,
        segment structure reused across the batched aggregators."""
        pred = col("v00") > 30.0
        spec = {"m": ("v01", "mean"), "sd": ("v01", "std"), "p": ("v01", "p95")}
        before, eager = best_of(
            lambda: wide_table.filter(pred).group_by(["k", "k2"]).aggregate(spec)
        )
        plan = (
            wide_table.lazy()
            .filter(pred)
            .group_by(["k", "k2"])
            .aggregate(spec)
        )
        after, fused = best_of(lambda: plan.collect(reuse=False))
        _assert_identical(fused, eager)
        results["engine.groupby_multikey_fused"] = _speedup_row(
            before, after, N_MID, groups=fused.n_rows
        )
        assert after < MAX_AFTER_SECONDS["groupby_multikey_fused"]

    def test_subplan_reuse(self, wide_table, results):
        """Second collect of a content-identical plan is a cache hit."""
        pred = col("v02") > 50.0
        spec = {"m": ("v03", "mean"), "n": ("v03", "count")}
        plan = wide_table.lazy().filter(pred).group_by("k").aggregate(spec)

        def cold():
            global_plan_cache().clear()
            return plan.collect()

        before, first = best_of(cold)
        plan.collect()  # prime
        after, warm = best_of(lambda: plan.collect())
        _assert_identical(warm, first)
        results["engine.subplan_reuse"] = _speedup_row(before, after, N_MID)
        global_plan_cache().clear()
        assert after < MAX_AFTER_SECONDS["subplan_reuse"]
        assert before / after >= MIN_REUSE_SPEEDUP, (
            f"plan-cache hit sped up only {before / after:.1f}x "
            f"(need >= {MIN_REUSE_SPEEDUP}x)"
        )

    def test_zz_write_baseline(self, results, results_dir):
        """Persist the engine snapshot (runs last: named zz, module fixture)."""
        assert results, "no benchmark rows collected"
        write_bench("engine", results)
        lines = []
        for name, row in results.items():
            name = name.removeprefix("engine.")
            if "speedup" in row:
                lines.append(
                    f"{name:24s} before {row['before_s']:.3f}s  "
                    f"after {row['seconds']:.3f}s  {row['speedup']:.1f}x"
                )
            else:
                lines.append(
                    f"{name:24s} encode {row['encode_s']:.3f}s  "
                    f"decode {row['decode_s']:.3f}s  pool {row['pool_size']}"
                )
        emit(results_dir, "engine_perf", "\n".join(lines))
