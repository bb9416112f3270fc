"""Obs overhead: disabled instrumentation must stay within noise.

The tentpole claim of the observability layer is that it is *free when
off*: a disabled ``obs.span(...)`` is one module-global check plus a
shared null object, so the kernel call sites added to group-by/join/sort
cost well under the run-to-run noise of the operations themselves.

Methodology (robust to timer noise on ms-scale kernels):

1. time the per-call cost of a disabled ``obs.span`` over 10^5 calls;
2. count how many spans one group-by / join actually opens (by enabling
   tracing once and counting);
3. time the real operations with obs disabled;
4. assert ``per_span_cost x spans_per_op / op_time < 3%`` — an *upper
   bound* on the disabled overhead, independent of scheduler jitter.

Each ``obs.*_disabled`` row's ``seconds`` is the op time with obs off;
the rows land in ``BENCH_obs.json`` at the repo root next to
``BENCH_engine.json``, and an enabled-tracing run is recorded alongside
for context (tracing on is allowed to cost; it is opt-in).

The profiling layer (``repro.obs.profile``) inherits the same contract:
with a :class:`ProfileSession` constructed but not started — the state
every non-``--profile`` run is in once the CLI has imported the module —
the disabled span path must be unchanged, and the derived overhead bound
must hold.  A profiled run is measured alongside for context, like the
traced runs.
"""

import numpy as np
import pytest

from bench_common import emit

from repro import obs
from repro.obs.bench import best_of, write_bench
from repro.tables.join import join
from repro.tables.schema import DType
from repro.tables.table import Table

N_ROWS = 300_000
N_SPAN_CALLS = 100_000

#: Best-of repetitions per timed op.
REPEAT = 5

#: The acceptance gate: disabled instrumentation under 3% of op time.
MAX_DISABLED_OVERHEAD = 0.03


@pytest.fixture(scope="module")
def tables():
    rng = np.random.Generator(np.random.PCG64(20220224))
    cities = np.array([f"city_{i:03d}" for i in range(300)], dtype=object)
    big = Table.from_dict(
        {
            "k": cities[rng.integers(0, len(cities), N_ROWS)].tolist(),
            "v": rng.normal(50.0, 20.0, N_ROWS),
        },
        dtypes={"k": DType.STR, "v": DType.FLOAT},
    )
    right = Table.from_dict(
        {
            "k": [f"city_{i:03d}" for i in range(300)],
            "w": rng.normal(0.0, 1.0, 300),
        },
        dtypes={"k": DType.STR, "w": DType.FLOAT},
    )
    return big, right


@pytest.fixture(scope="module")
def results():
    return {}


@pytest.fixture(scope="module")
def context():
    """File-level numbers that are not rows (the disabled span's cost)."""
    return {}


def _disabled_span_cost_s():
    """Per-call wall cost of the disabled obs.span fast path."""
    obs.reset()

    def burst():
        for _ in range(N_SPAN_CALLS):
            with obs.span("kernel.bench", metric="kernel.bench_ms", rows=1):
                pass

    total, _ = best_of(burst, repeat=3)
    return total / N_SPAN_CALLS


def _spans_per_op(fn):
    """How many spans one call of ``fn`` opens when tracing is on."""
    obs.reset()
    obs.enable(trace=True, metrics=True)
    try:
        fn()
        return len(obs.tracer().spans)
    finally:
        obs.reset()


class TestObsOverhead:
    def test_disabled_span_is_submicrosecond(self, context):
        cost = _disabled_span_cost_s()
        context["disabled_span_cost_us"] = cost * 1e6
        # The whole point of NULL_SPAN: no allocation beyond the kwargs
        # dict, no clock read.  Anything over 10μs means the gate broke.
        assert cost < 10e-6, f"disabled span costs {cost * 1e6:.2f}μs"

    @pytest.mark.parametrize(
        "op_name", ["groupby", "join"], ids=["groupby", "join"]
    )
    def test_disabled_overhead_under_3_percent(self, tables, results, op_name):
        big, right = tables
        spec = {"m": ("v", "mean"), "n": ("v", "count")}
        ops = {
            "groupby": lambda: big.group_by("k").aggregate(spec),
            "join": lambda: join(big, right, on="k"),
        }
        op = ops[op_name]

        obs.reset()  # obs disabled: the production default
        op_s, _ = best_of(op, REPEAT)
        n_spans = _spans_per_op(op)
        span_cost_s = _disabled_span_cost_s()
        overhead = (span_cost_s * n_spans) / op_s

        obs.enable(trace=True, metrics=True)
        traced_s, _ = best_of(op, REPEAT)
        obs.reset()

        results[f"obs.{op_name}_disabled"] = {
            "seconds": op_s,
            "rows": N_ROWS,
            "op_s_traced": traced_s,
            "spans_per_op": n_spans,
            "span_cost_us": span_cost_s * 1e6,
            "disabled_overhead_fraction": overhead,
        }
        assert n_spans >= 1  # the instrumentation is actually there
        assert overhead < MAX_DISABLED_OVERHEAD, (
            f"{op_name}: disabled obs costs {overhead:.2%} of op time "
            f"(need < {MAX_DISABLED_OVERHEAD:.0%})"
        )

    def test_profiler_disabled_is_free(self, tables, results):
        """The profiling layer must not tax unprofiled runs.

        Constructing (without starting) a session is exactly what a
        plain run pays once ``repro.obs.profile`` is imported; the
        disabled span fast path and the kernels must be unaffected.
        """
        from repro.obs.profile import ProfileSession

        big, right = tables
        spec = {"m": ("v", "mean"), "n": ("v", "count")}
        op = lambda: big.group_by("k").aggregate(spec)  # noqa: E731

        obs.reset()
        session = ProfileSession(sample=True, allocs=True)
        assert not session.running
        span_cost_s = _disabled_span_cost_s()
        op_s, _ = best_of(op, REPEAT)
        n_spans = _spans_per_op(op)
        overhead = (span_cost_s * n_spans) / op_s

        # Context: the same op under full profiling (sampler at 5ms +
        # allocation hook + tracing).  Opt-in, so allowed to cost — the
        # number is recorded, not gated.
        obs.enable(trace=True, metrics=True)
        session = ProfileSession(sample=True, allocs=True).start()
        try:
            profiled_s, _ = best_of(op, REPEAT)
            samples = session.sampler.n_samples
        finally:
            session.stop()
            obs.reset()

        results["obs.profile_disabled"] = {
            "seconds": op_s,
            "rows": N_ROWS,
            "op_s_profiled": profiled_s,
            "spans_per_op": n_spans,
            "span_cost_us": span_cost_s * 1e6,
            "sampler_interval_ms": 5.0,
            "sampler_samples": samples,
            "disabled_overhead_fraction": overhead,
        }
        assert span_cost_s < 10e-6, (
            f"disabled span costs {span_cost_s * 1e6:.2f}μs with the "
            f"profiler imported"
        )
        assert overhead < MAX_DISABLED_OVERHEAD, (
            f"profiler-off overhead {overhead:.2%} of op time "
            f"(need < {MAX_DISABLED_OVERHEAD:.0%})"
        )

    def test_zz_write_baseline(self, results, context, results_dir):
        """Persist the obs snapshot (runs last: named zz, module fixture)."""
        assert set(results) == {
            "obs.groupby_disabled", "obs.join_disabled", "obs.profile_disabled"
        }
        write_bench(
            "obs", results,
            max_disabled_overhead=MAX_DISABLED_OVERHEAD, **context,
        )
        lines = [
            f"disabled span cost: {context['disabled_span_cost_us']:.3f}μs/call"
        ]
        for name in ("groupby", "join"):
            row = results[f"obs.{name}_disabled"]
            lines.append(
                f"{name:8s} disabled {row['seconds']:.4f}s  "
                f"traced {row['op_s_traced']:.4f}s  "
                f"{row['spans_per_op']} spans/op  "
                f"overhead(off) {row['disabled_overhead_fraction']:.4%}"
            )
        prof = results["obs.profile_disabled"]
        lines.append(
            f"profile  disabled {prof['seconds']:.4f}s  "
            f"profiled {prof['op_s_profiled']:.4f}s  "
            f"({prof['sampler_samples']} samples @ "
            f"{prof['sampler_interval_ms']:g}ms)  "
            f"overhead(off) {prof['disabled_overhead_fraction']:.4%}"
        )
        emit(results_dir, "obs_overhead", "\n".join(lines))
