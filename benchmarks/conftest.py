"""Benchmark fixtures: one shared dataset, its report, a results directory.

Scale defaults to 25% of the paper's test volume (override with
``REPRO_BENCH_SCALE=1.0`` for a full-scale run).  Every bench writes its
reproduced table/series as CSV under ``results/`` and prints a
paper-vs-measured comparison.  The paper's tables and figures come from
the report itself (``bench_report``): a bench writes the tables and the
text its section returns, and adds only its comparison lines.

Every benchmark test is also timed into the process-wide benchmark
registry (``repro.obs.bench``) under ``pytest.<module>.<test>`` — so all
benchmark modules feed the registry for free, on top of the rows the
snapshot modules hand to ``repro.obs.bench.write_bench``, which records
them there too.  Run with ``REPRO_BENCH_RECORD=1`` (plus ``REPRO_BENCH_SHA`` /
``REPRO_BENCH_TS`` for the run key) to append the session's records to
``BENCH_history.jsonl``.
"""

import os
from pathlib import Path

import pytest

from bench_common import bench_scale

from repro.obs.bench import (
    append_history,
    external_run_key,
    session_registry,
)
from repro.obs.clock import monotonic
from repro.runtime.experiments import run_experiments
from repro.runtime.run import ReportRun
from repro.synth import DatasetGenerator, GeneratorConfig


@pytest.fixture(scope="session")
def bench_dataset():
    config = GeneratorConfig(seed=20220224, scale=bench_scale())
    return DatasetGenerator(config).generate()


@pytest.fixture(scope="session")
def results_dir():
    path = Path(__file__).resolve().parent.parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def bench_report(bench_dataset):
    """All 18 experiments over the bench dataset, run once.

    ``sections`` maps each experiment to its text and ``tables`` each
    ``results/`` file stem to its table.
    """
    run = ReportRun.from_sections(bench_dataset, *run_experiments(bench_dataset))
    assert run.exit_code == 0, run.render()
    return run


@pytest.fixture(autouse=True)
def _register_test_timing(request):
    """Time every benchmark test into the registry, free of charge."""
    t0 = monotonic()
    yield
    module = getattr(request.module, "__name__", "unknown")
    session_registry().record(
        f"pytest.{module}.{request.node.name}", monotonic() - t0
    )


def pytest_sessionfinish(session, exitstatus):
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    registry = session_registry()
    if not len(registry):
        return
    key = external_run_key()
    record = append_history(
        registry.as_benchmarks(), key["sha"], key["timestamp"]
    )
    print(
        f"\nbench registry: recorded {len(record['benchmarks'])} entries "
        f"to BENCH history (sha {key['sha']})"
    )
