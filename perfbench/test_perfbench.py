"""Fast self-test of the benchmark.

Runs each workload once at a tiny scale and checks that the metric names
it prints are exactly those declared in ``BENCHMARK.json``, and that every
wrapper target of the traced run still resolves, so that a rename in the
program fails here instead of silently zeroing a layer.  Run from the
repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Correctness checks are not asserted: at this scale the paper's claims do
not all hold, which the real runs check.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer  # noqa: E402

TINY_SCALE = "0.02"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_wrapper_target_resolves():
    for target in tracer.all_targets():
        tracer.resolve(target)


def test_one_section_target_per_distinct_experiment_function():
    names = [t.name for t in tracer.section_targets()]
    assert len(names) == len(set(names)) == 13


def _small_trace():
    tr = tracer.Tracer("selftest")
    leaf = tr.wrap(tracer.Target("leaf", "", ""), lambda: time.sleep(0.001))

    def middle():
        leaf()
        leaf()

    middle = tr.wrap(tracer.Target("middle", "", ""), middle)
    with tr.span(tracer.ROOT):
        middle()
        leaf()
    return tr


def test_spans_nest_and_self_times_partition_the_root():
    tr = _small_trace()
    selfs = tr.self_times()
    tr.check_nesting(selfs)
    assert all(s >= 0.0 for s in selfs)
    assert sum(selfs) == pytest.approx(tr.ends[0] - tr.starts[0], abs=1e-9)
    assert tr.calls["leaf"] == 3 and tr.calls["middle"] == 1


def test_nesting_check_rejects_a_child_that_outlasts_its_parent():
    tr = _small_trace()
    middle = tr.names.index("middle")
    tr.ends[middle + 1] = tr.ends[middle] + 1.0  # its first leaf ends after it
    with pytest.raises(RuntimeError, match="not inside its parent"):
        tr.check_nesting(tr.self_times())


def test_nesting_check_rejects_overlapping_children():
    tr = _small_trace()
    middle = tr.names.index("middle")
    first, second = middle + 1, middle + 2
    tr.ends[first] = tr.ends[second]  # both leaves now cover the same time
    with pytest.raises(RuntimeError, match="children overlap"):
        tr.check_nesting(tr.self_times())


def test_only_a_generator_calibration_failure_rejects_a_seed():
    import worker
    from repro.util.errors import CalibrationError, StageFailure

    ipf = CalibrationError("IPF did not converge")
    assert worker._rejection(StageFailure("generate", 1, ipf))
    assert worker._rejection(ipf)
    assert worker._rejection(StageFailure("analysis", 1, ipf)) is None
    assert worker._rejection(ValueError("not an input problem")) is None


def test_generator_seeds_start_with_the_seed_and_repeat():
    import run

    seeds = run.generator_seeds(18)
    assert seeds[0] == 18 and seeds == run.generator_seeds(18)
    assert len(set(seeds)) == run.SEED_TRIES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_emits_exactly_the_declared_metrics(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--scale", TINY_SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
