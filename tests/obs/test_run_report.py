"""The run report: assembly, rendering, files, schema validation."""

import json

import pytest

from repro.obs.report import (
    build_run_report,
    load_schema,
    render_run_report,
    validate_run_report,
    write_run_report,
)
from repro.util.errors import ReproError
from repro.obs.trace import Tracer
from repro.runtime.pipeline import RunReport, StageResult, StageStatus


def make_pipeline_report():
    return RunReport(
        key="abc123",
        results=[
            StageResult(
                name="generate",
                status=StageStatus.OK,
                duration_s=2.0,
                rows_out=1000,
            ),
            StageResult(
                name="ingest",
                status=StageStatus.OK,
                duration_s=1.5,
                rows_in=1000,
                rows_out=990,
            ),
            StageResult(
                name="broken",
                status=StageStatus.FAILED,
                duration_s=0.1,
                error="AnalysisError: no tests",
            ),
        ],
    )


class TestBuild:
    def test_totals_and_stage_rows(self):
        data = build_run_report(make_pipeline_report(), run_id="deadbeef")
        assert data["run_id"] == "deadbeef"
        assert data["key"] == "abc123"
        assert data["ok"] is False
        t = data["totals"]
        assert t == {
            "stages": 3, "ok": 2, "cached": 0, "failed": 1, "skipped": 0,
            "wall_s": 3.6,
        }
        assert data["stages"][1] == {
            "name": "ingest", "status": "ok", "duration_s": 1.5,
            "rows_in": 1000, "rows_out": 990, "error": None,
        }

    def test_counters_fill_checkpoints_quarantine_faults(self):
        snapshot = {
            "counters": {
                "checkpoint.hits": 2,
                "checkpoint.misses": 1,
                "checkpoint.saves": 3,
                "ingest.rows_quarantined": 17,
                "faults.rows_injected": 40,
            },
            "gauges": {},
            "histograms": {},
        }
        data = build_run_report(
            make_pipeline_report(), metrics_snapshot=snapshot
        )
        assert data["checkpoints"] == {"hits": 2, "misses": 1, "saves": 3}
        assert data["quarantine"]["rows_quarantined"] == 17
        assert data["faults"]["rows_injected"] == 40
        assert data["metrics"] == snapshot

    def test_cached_stages_floor_checkpoint_hits_without_metrics(self):
        report = RunReport(
            key="k",
            results=[
                StageResult(name="a", status=StageStatus.CACHED)
            ],
        )
        data = build_run_report(report)
        assert data["checkpoints"]["hits"] == 1

    def test_top_spans_come_from_tracer(self):
        clock = iter(float(i) for i in range(100)).__next__
        tracer = Tracer(clock=clock)
        with tracer.span("slow"):
            with tracer.span("inner", rows=5):
                pass
        data = build_run_report(make_pipeline_report(), tracer=tracer, top_n=1)
        assert len(data["top_spans"]) == 1
        assert data["top_spans"][0]["name"] == "slow"

    def test_validates_against_checked_in_schema(self):
        data = build_run_report(make_pipeline_report(), run_id="r1")
        assert data["schema_version"] == 2
        assert validate_run_report(data) == []

    def test_trace_health_defaults_without_tracer(self):
        data = build_run_report(make_pipeline_report())
        assert data["trace"] == {
            "spans": 0, "open": 0, "spans_leaked": 0, "leaked_names": [],
        }

    def test_trace_health_counts_leaks(self):
        clock = iter(float(i) for i in range(100)).__next__
        tracer = Tracer(clock=clock)
        outer = tracer.span("outer")
        tracer.span("leaky")  # never closed
        outer.__exit__(None, None, None)
        data = build_run_report(make_pipeline_report(), tracer=tracer)
        assert data["trace"]["spans"] == 2
        assert data["trace"]["spans_leaked"] == 1
        assert data["trace"]["leaked_names"] == ["leaky"]
        assert validate_run_report(data) == []


class TestRender:
    def test_render_lists_stages_and_totals(self):
        text = render_run_report(build_run_report(make_pipeline_report()))
        lines = text.splitlines()
        assert lines[1].split() == [
            "stage", "status", "wall_s", "rows_in", "rows_out", "error"
        ]
        assert lines[2].split() == ["generate", "ok", "2.000", "-", "1000"]
        assert "AnalysisError" in lines[4]
        assert lines[5] == (
            "totals: 3 stages (2 ok, 0 cached, 1 failed, 0 skipped); wall 3.600s"
        )

    def test_clean_stage_hides_attempt_lines(self):
        # A schema-v1 report still renders: its attempt fields are ignored,
        # so it prints exactly what the same run's v2 report prints.
        v2 = build_run_report(make_pipeline_report())
        v1 = json.loads(json.dumps(v2))
        v1["schema_version"] = 1
        v1["totals"].update(attempts=3, retries=0)
        for row in v1["stages"]:
            row.update(
                attempts=1, retries=0, attempt_durations_s=[row["duration_s"]]
            )
        text = render_run_report(v1)
        assert "attempt" not in text
        assert text == render_run_report(v2)

    def test_leaked_spans_warn_by_name(self):
        clock = iter(float(i) for i in range(100)).__next__
        tracer = Tracer(clock=clock)
        outer = tracer.span("outer")
        tracer.span("kernel.leaky")  # never closed
        outer.__exit__(None, None, None)
        text = render_run_report(
            build_run_report(make_pipeline_report(), tracer=tracer)
        )
        assert "trace: 2 spans" in text
        assert "WARNING" in text
        assert "kernel.leaky" in text

    def test_clean_trace_does_not_warn(self):
        clock = iter(float(i) for i in range(100)).__next__
        tracer = Tracer(clock=clock)
        with tracer.span("clean"):
            pass
        text = render_run_report(
            build_run_report(make_pipeline_report(), tracer=tracer)
        )
        assert "trace: 1 spans, 0 open, 0 leaked" in text
        assert "WARNING" not in text


class TestWrite:
    def test_writes_json_and_txt(self, tmp_path):
        data = build_run_report(make_pipeline_report(), run_id="r1")
        paths = write_run_report(data, str(tmp_path))
        loaded = json.loads((tmp_path / "run_report.json").read_text())
        assert loaded == data
        assert (tmp_path / "run_report.txt").read_text().startswith("run report")
        assert paths["json"].endswith("run_report.json")

    def test_written_json_is_deterministic(self, tmp_path):
        data = build_run_report(make_pipeline_report(), run_id="r1")
        write_run_report(data, str(tmp_path / "a"))
        write_run_report(data, str(tmp_path / "b"))
        assert (tmp_path / "a/run_report.json").read_bytes() == (
            tmp_path / "b/run_report.json"
        ).read_bytes()


class TestValidate:
    @pytest.mark.parametrize("name", [
        "run_report.schema.json", "provenance.schema.json",
        "profile.schema.json", "alerts.schema.json", "effects.schema.json",
    ])
    def test_every_checked_in_schema_loads(self, name):
        assert load_schema(name)["type"] == "object"

    def test_a_missing_schema_is_a_typed_error_naming_its_path(self):
        with pytest.raises(ReproError, match=r"docs/nope\.schema\.json"):
            load_schema("nope.schema.json")

    def test_missing_required_key_flagged(self):
        data = build_run_report(make_pipeline_report())
        del data["totals"]
        errors = validate_run_report(data)
        assert any("totals" in e for e in errors)

    def test_unexpected_top_level_key_flagged(self):
        data = build_run_report(make_pipeline_report())
        data["surprise"] = 1
        assert any("surprise" in e for e in validate_run_report(data))

    def test_bad_status_enum_flagged(self):
        data = build_run_report(make_pipeline_report())
        data["stages"][0]["status"] = "exploded"
        assert any("exploded" in e for e in validate_run_report(data))

    def test_negative_attempts_flagged(self):
        # Schema v2 has no attempt fields: a stage row or totals block that
        # still carries one (negative or not) is rejected.
        data = build_run_report(make_pipeline_report())
        data["stages"][0].update(attempts=-1, retries=0, attempt_durations_s=[])
        data["totals"].update(attempts=1, retries=0)
        assert validate_run_report(data) == [
            ".totals: unexpected key 'attempts'",
            ".totals: unexpected key 'retries'",
            ".stages[0]: unexpected key 'attempts'",
            ".stages[0]: unexpected key 'retries'",
            ".stages[0]: unexpected key 'attempt_durations_s'",
        ]
