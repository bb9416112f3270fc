"""Hotspot baseline: per-span self-time gates over the pipeline run.

End-to-end wall time is a blunt gate: a 2x regression in one stage can
hide behind savings in another.  This bench profiles a full traced
pipeline run, attributes *exclusive* (self) time to every span name via
``repro.obs.profile.selftime``, and records the top hotspots in
``BENCH_profile.json`` through the sanctioned writer: one
``hotspot.<span>`` row each, whose ``seconds`` is the span's self time,
so ``repro bench compare`` (exit 6) fires when any individual hot path
slows beyond the threshold — the per-hotspot regression gate of
docs/OBSERVABILITY.md.

Only hotspots comfortably above the comparison noise floor are recorded
(2x ``DEFAULT_MIN_SECONDS``); a 3ms span cannot be gated with a wall
clock.  The sum-to-root invariant (Σ self == root duration) is asserted
here too, on real pipeline spans rather than synthetic ones.
"""

import pytest

from bench_common import bench_scale, emit

from repro import obs
from repro.obs.bench import DEFAULT_MIN_SECONDS, write_bench
from repro.obs.profile import render_self_time, self_time_profile
from repro.runtime.run import run_pipeline
from repro.synth.generator import GeneratorConfig

#: How many hotspots the baseline keeps.  Enough to cover every stage of
#: the pipeline plus the hottest analysis/kernel spans, few enough that
#: the gate stays readable.
TOP_N = 8

#: A hotspot must clear twice the compare noise floor to be recorded —
#: rows under ``DEFAULT_MIN_SECONDS`` would be skipped as noise anyway,
#: and rows barely above it would gate on scheduler jitter.
MIN_HOTSPOT_S = 2 * DEFAULT_MIN_SECONDS

#: The regression gate needs real coverage: fewer than this many gated
#: hotspots means the run was too small to profile meaningfully.
MIN_GATED_HOTSPOTS = 3

#: All 18 experiments: only the full run exercises the heavy analyses
#: (churn, hopgeo, the table2/fig9 family) whose self-times clear the
#: noise floor and are worth gating.
EXPERIMENTS = None


@pytest.fixture(scope="module")
def profiled_run():
    """One traced pipeline run; yields (tracer, self-time profile)."""
    obs.reset()
    obs.enable(trace=True, metrics=True)
    try:
        config = GeneratorConfig(seed=20220224, scale=bench_scale())
        run = run_pipeline(
            config, experiments=EXPERIMENTS, checkpoint_dir=None
        )
        assert run.exit_code == 0
        tracer = obs.tracer()
    finally:
        obs.reset()
    return tracer, self_time_profile(tracer.spans)


class TestProfileHotspots:
    def test_self_time_sums_to_root(self, profiled_run):
        """The attribution invariant holds on real pipeline spans."""
        tracer, profile = profiled_run
        assert profile.n_open == 0, "pipeline run leaked spans"
        assert profile.self_total_s() == pytest.approx(
            profile.root_total_s, abs=1e-9
        )

    def test_enough_hotspots_to_gate(self, profiled_run):
        _, profile = profiled_run
        gated = [e for e in profile.entries if e.self_s >= MIN_HOTSPOT_S]
        assert len(gated) >= MIN_GATED_HOTSPOTS, (
            f"only {len(gated)} hotspot(s) above {MIN_HOTSPOT_S}s — "
            f"increase REPRO_BENCH_SCALE (now {bench_scale()})"
        )

    def test_zz_write_baseline(self, profiled_run, results_dir):
        """Persist the hotspot snapshot (runs last: named zz)."""
        _, profile = profiled_run
        hotspots = [
            e for e in profile.entries if e.self_s >= MIN_HOTSPOT_S
        ][:TOP_N]
        write_bench(
            "profile",
            {
                f"hotspot.{e.name}": {
                    "seconds": e.self_s,
                    "total_s": e.total_s,
                    "calls": e.calls,
                    "layer": e.layer,
                }
                for e in hotspots
            },
            scale=bench_scale(),
            experiments=EXPERIMENTS or "all",
            root_total_s=profile.root_total_s,
        )
        emit(
            results_dir,
            "profile_hotspots",
            render_self_time(profile, top=TOP_N,
                             title="gated pipeline hotspots"),
        )
