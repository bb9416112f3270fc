"""The repro obs subcommand, driven through the real CLI entry point."""

import json

import pytest

from repro.cli import main
from repro.obs.export import write_spans_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_run_report, write_run_report
from repro.obs.trace import Tracer
from repro.runtime.pipeline import RunReport, StageResult, StageStatus


@pytest.fixture
def artifacts(tmp_path):
    """A matching trace / metrics / run-report triple on disk."""
    ticks = iter(float(i) for i in range(100))
    tracer = Tracer(clock=ticks.__next__)
    with tracer.span("stage.generate"):
        with tracer.span("kernel.groupby", rows=10):
            pass
    trace_path = tmp_path / "trace.jsonl"
    write_spans_jsonl(tracer, str(trace_path))

    reg = MetricsRegistry()
    reg.counter("checkpoint.saves").inc(2)
    reg.histogram("kernel.groupby_ms").observe(4.0)
    metrics_path = tmp_path / "metrics.json"
    metrics_path.write_text(reg.to_json())

    report = RunReport(
        key="k1",
        results=[
            StageResult(
                name="generate", status=StageStatus.OK, duration_s=1.0,
                rows_out=100,
            )
        ],
    )
    data = build_run_report(
        report, run_id="r1", tracer=tracer, metrics_snapshot=reg.snapshot()
    )
    write_run_report(data, str(tmp_path))
    return tmp_path


class TestSummarize:
    def test_report_and_trace_together(self, artifacts, capsys):
        rc = main([
            "obs", "summarize",
            "--report", str(artifacts / "run_report.json"),
            "--trace", str(artifacts / "trace.jsonl"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "run report" in out
        assert "kernel.groupby" in out
        assert "2 spans" in out

    def test_needs_at_least_one_input(self, capsys):
        rc = main(["obs", "summarize"])
        assert rc == 2
        assert "needs --report and/or --trace" in capsys.readouterr().err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["obs", "summarize", "--report", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err


class TestDiff:
    def test_diff_metrics_files(self, artifacts, tmp_path, capsys):
        reg = MetricsRegistry()
        reg.counter("checkpoint.saves").inc(5)
        reg.histogram("kernel.groupby_ms").observe(4.0)
        reg.histogram("kernel.groupby_ms").observe(6.0)
        after = tmp_path / "after.json"
        after.write_text(reg.to_json())
        rc = main(["obs", "diff", str(artifacts / "metrics.json"), str(after)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "counter checkpoint.saves: 2 -> 5 (+3)" in out
        assert "histogram kernel.groupby_ms: count +1" in out

    def test_diff_accepts_run_reports(self, artifacts, capsys):
        report = str(artifacts / "run_report.json")
        rc = main(["obs", "diff", report, report])
        assert rc == 0
        assert "(no differences)" in capsys.readouterr().out

    def test_diff_rejects_unrelated_json(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"hello": 1}))
        rc = main(["obs", "diff", str(path), str(path)])
        assert rc == 1
        assert "neither a metrics snapshot nor a run report" in (
            capsys.readouterr().err
        )


class TestGracefulDegradation:
    """Trimmed artifacts (older producers, hand-filtered files) still render."""

    def test_summarize_report_missing_sections(self, tmp_path, capsys):
        path = tmp_path / "run_report.json"
        path.write_text(json.dumps({"schema_version": 1, "run_id": "r1"}))
        rc = main(["obs", "summarize", "--report", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(no stages section in this report)" in out
        assert "(no totals section in this report)" in out

    def test_summarize_appends_histogram_percentiles(self, artifacts, capsys):
        rc = main([
            "obs", "summarize", "--report", str(artifacts / "run_report.json")
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kernel.groupby_ms" in out
        assert "p50" in out and "p95" in out

    def test_diff_report_without_metrics_degrades(
        self, artifacts, tmp_path, capsys
    ):
        trimmed = tmp_path / "trimmed.json"
        data = json.loads((artifacts / "run_report.json").read_text())
        del data["metrics"]
        trimmed.write_text(json.dumps(data))
        rc = main([
            "obs", "diff", str(trimmed), str(artifacts / "run_report.json")
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "without a metrics section" in captured.err
        assert "added" in captured.out  # everything appears on the after side


class TestLineage:
    def _provenance(self, tmp_path, status="ok"):
        from repro.obs.lineage import LineageRecorder, write_provenance
        from repro.tables.schema import DType
        from repro.tables.table import Table

        t = Table.from_dict(
            {"day": [1, 2]}, dtypes={"day": DType.INT}
        )
        rec = LineageRecorder()
        rec.set_run(run_id="r1", config_key="k1")
        rec.record_stage("generate", value=t, status=status)
        return write_provenance(rec, str(tmp_path / "provenance.json"))

    def test_render_validated(self, tmp_path, capsys):
        path = self._provenance(tmp_path)
        rc = main(["obs", "lineage", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "provenance — run r1" in out
        assert "generate" in out

    def test_invalid_document_exits_one(self, tmp_path, capsys):
        path = self._provenance(tmp_path, status="exploded")
        rc = main(["obs", "lineage", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "schema violation" in captured.err

    def test_no_validate_renders_anyway(self, tmp_path, capsys):
        path = self._provenance(tmp_path, status="exploded")
        rc = main(["obs", "lineage", path, "--no-validate"])
        assert rc == 0
        assert "generate" in capsys.readouterr().out

    def test_dot_output(self, tmp_path, capsys):
        path = self._provenance(tmp_path)
        rc = main(["obs", "lineage", path, "--dot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("digraph provenance {")


class TestProfile:
    def test_summarize_trace_shows_self_time(self, artifacts, capsys):
        rc = main([
            "obs", "summarize", "--trace", str(artifacts / "trace.jsonl"),
            "--top", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "self-time" in out
        assert "stage.generate" in out
        assert "self%" in out

    def test_profile_from_trace_writes_and_renders(self, artifacts, capsys):
        out_path = artifacts / "profile.json"
        rc = main([
            "obs", "profile", "--trace", str(artifacts / "trace.jsonl"),
            "--out", str(out_path),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"wrote {out_path}" in captured.err
        assert "profile — run" in captured.out
        assert "kernel.groupby" in captured.out
        data = json.loads(out_path.read_text())
        assert data["schema_version"] == 1
        assert data["source"] == "trace.jsonl"

    def test_profile_rebuild_is_byte_stable(self, artifacts, capsys):
        a, b = artifacts / "pa.json", artifacts / "pb.json"
        for out in (a, b):
            assert main([
                "obs", "profile", "--trace", str(artifacts / "trace.jsonl"),
                "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_profile_reads_written_profile_json(self, artifacts, capsys):
        out_path = artifacts / "profile.json"
        main([
            "obs", "profile", "--trace", str(artifacts / "trace.jsonl"),
            "--out", str(out_path),
        ])
        capsys.readouterr()
        rc = main(["obs", "profile", "--profile-json", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stage.generate" in out

    def test_invalid_profile_json_exits_one(self, artifacts, capsys):
        bad = artifacts / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        rc = main(["obs", "profile", "--profile-json", str(bad)])
        assert rc == 1
        assert "schema violation" in capsys.readouterr().err

    def test_flame_without_samples_is_a_clean_error(self, tmp_path, capsys):
        rc = main([
            "--obs-dir", str(tmp_path), "obs", "profile", "--flame",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "samples.collapsed" in err
        assert "--profile" in err

    def test_flame_prints_collapsed_stacks(self, tmp_path, capsys):
        (tmp_path / "samples.collapsed").write_text("span:stage.x;f 3\n")
        rc = main(["--obs-dir", str(tmp_path), "obs", "profile", "--flame"])
        assert rc == 0
        assert capsys.readouterr().out == "span:stage.x;f 3\n"

    def test_flame_looks_next_to_profile_json(self, tmp_path, capsys):
        # --profile-json anchors the samples lookup so a copied obs dir
        # works without also passing --obs-dir.
        (tmp_path / "profile.json").write_text("{}")
        (tmp_path / "samples.collapsed").write_text("span:stage.y;g 7\n")
        rc = main([
            "obs", "profile",
            "--profile-json", str(tmp_path / "profile.json"), "--flame",
        ])
        assert rc == 0
        assert capsys.readouterr().out == "span:stage.y;g 7\n"


class TestMem:
    def test_mem_renders_memory_report(self, capsys):
        rc = main(["--scale", "0.02", "obs", "mem", "--top", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "memory report" in out
        assert "top 3 columns by bytes" in out
        assert "ndt" in out and "traces" in out


class TestValidate:
    def test_valid_report(self, artifacts, capsys):
        rc = main(["obs", "validate", str(artifacts / "run_report.json")])
        assert rc == 0
        assert "valid (schema v2, 1 stages)" in capsys.readouterr().out

    def test_invalid_report_exits_one(self, artifacts, capsys):
        path = artifacts / "run_report.json"
        data = json.loads(path.read_text())
        data["stages"][0]["status"] = "exploded"
        del data["totals"]
        path.write_text(json.dumps(data))
        rc = main(["obs", "validate", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "schema violation" in err
        assert "totals" in err
