"""End-to-end: a traced, metered pipeline run produces valid artifacts."""

import json

import pytest

from repro import obs
from repro.obs.export import read_spans_jsonl, write_spans_jsonl
from repro.obs.report import build_run_report, validate_run_report, write_run_report
from repro.runtime.run import run_pipeline
from repro.synth.generator import GeneratorConfig

CONFIG = GeneratorConfig(seed=3, scale=0.02)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One pipeline run with both pillars on, shared across this module."""
    obs.reset()
    obs.enable(trace=True, metrics=True)
    try:
        run = run_pipeline(
            CONFIG,
            experiments=["table1", "hopgeo"],
            checkpoint_dir=str(tmp_path_factory.mktemp("checkpoints")),
        )
        tracer = obs.tracer()
        snapshot = obs.metrics_snapshot()
    finally:
        obs.reset()
    out = tmp_path_factory.mktemp("obs")
    write_spans_jsonl(tracer.spans, str(out / "trace.jsonl"))
    data = build_run_report(
        run.report,
        run_id="smoke",
        tracer=tracer,
        metrics_snapshot=snapshot,
        gates=run.gates,
        injection=run.injection,
    )
    write_run_report(data, str(out))
    return run, tracer, snapshot, data, out


class TestSmoke:
    def test_pipeline_succeeds_under_instrumentation(self, traced_run):
        run, _, _, _, _ = traced_run
        assert run.exit_code == 0
        assert set(run.sections) == {"table1", "hopgeo"}

    def test_every_stage_has_a_span(self, traced_run):
        run, tracer, _, _, _ = traced_run
        span_names = {s.name for s in tracer.spans}
        for result in run.report.results:
            assert f"stage.{result.name}" in span_names

    def test_analysis_and_kernel_spans_nest_inside_stages(self, traced_run):
        _, tracer, _, _, _ = traced_run
        by_id = {s.span_id: s for s in tracer.spans}
        analysis = [s for s in tracer.spans if s.name.startswith("analysis.")]
        kernels = [s for s in tracer.spans if s.name.startswith("kernel.")]
        assert analysis and kernels
        for s in analysis + kernels:
            root = s
            while root.parent_id is not None:
                root = by_id[root.parent_id]
            assert root.name.startswith("stage.")

    def test_no_span_leaks_open(self, traced_run):
        _, tracer, _, _, _ = traced_run
        assert tracer.open_spans == []

    def test_kernel_histograms_populated(self, traced_run):
        _, _, snapshot, _, _ = traced_run
        hists = snapshot["histograms"]
        assert any(name.startswith("kernel.") for name in hists)
        for h in hists.values():
            assert h["count"] >= 1
            assert h["sum"] >= 0.0

    def test_ingest_counters_match_gate_reports(self, traced_run):
        run, _, snapshot, _, _ = traced_run
        counters = snapshot["counters"]
        total = sum(g.report.n_quarantined for g in run.gates.values())
        assert counters.get("ingest.rows_quarantined", 0) == total

    def test_run_report_validates_against_schema(self, traced_run):
        _, _, _, data, _ = traced_run
        assert validate_run_report(data) == []

    def test_written_report_loads_and_validates(self, traced_run):
        _, _, _, _, out = traced_run
        loaded = json.loads((out / "run_report.json").read_text())
        assert validate_run_report(loaded) == []
        text = (out / "run_report.txt").read_text()
        assert "totals:" in text

    def test_trace_jsonl_round_trips(self, traced_run):
        _, tracer, _, _, out = traced_run
        loaded = read_spans_jsonl(str(out / "trace.jsonl"))
        assert len(loaded) == len(tracer.spans)
        assert {s["name"] for s in loaded} == {s.name for s in tracer.spans}
