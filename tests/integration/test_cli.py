"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.runtime.run import EXIT_ANALYSIS, EXIT_GENERATION


class TestReport:
    def test_report_prints_all_artifacts(self, tmp_path, capsys):
        assert main(["--scale", "0.04", "--checkpoint-dir", str(tmp_path), "report"]) == 0
        out = capsys.readouterr().out
        for marker in ["Table 1", "Table 2", "Table 3", "Figure 2", "Figure 5",
                       "Figure 6", "Kyivstar", "Mariupol"]:
            assert marker in out, marker


class TestExperiment:
    @pytest.mark.parametrize("name,marker", [
        ("table1", "Welch"),
        ("table2", "paths_per_conn"),
        ("fig4", "Mariupol"),
        ("fig5", "border"),
        ("events", "event"),
        ("outages", "outage-shaped"),
        ("hopgeo", "agreement"),
    ])
    def test_single_experiments(self, tmp_path, capsys, name, marker):
        args = ["--scale", "0.04", "--checkpoint-dir", str(tmp_path)]
        assert main(args + ["experiment", name]) == 0
        assert marker in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestGenerate:
    def test_writes_csvs(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        assert main(["--scale", "0.02", "generate", "--out", out]) == 0
        assert (tmp_path / "res" / "ndt_downloads.csv").exists()
        assert (tmp_path / "res" / "traceroutes.csv").exists()
        assert "wrote" in capsys.readouterr().out


class TestFaultTolerance:
    def test_report_with_injected_faults_completes(self, tmp_path, capsys):
        rc = main([
            "--scale", "0.03", "--inject-faults", "default",
            "--checkpoint-dir", str(tmp_path), "report",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "fault injection" in captured.out
        assert "quarantined" in captured.out
        assert "0 failed" in captured.out

    def test_resume_hits_generate_checkpoint(self, tmp_path, capsys):
        args = ["--scale", "0.02", "--checkpoint-dir", str(tmp_path)]
        assert main(args + ["experiment", "fig2"]) == 0
        capsys.readouterr()
        assert main(args + ["--resume", "report"]) == 0
        out = capsys.readouterr().out
        assert "cached" in out
        assert "1 cached" in out

    def test_generate_with_faults_writes_dirty_csvs(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        rc = main([
            "--scale", "0.02", "--inject-faults", "heavy",
            "generate", "--out", str(out_dir),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "fault injection" in captured.out
        assert (out_dir / "ndt_downloads.csv").exists()

    def test_unknown_profile_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["--inject-faults", "apocalyptic", "report"])

    def test_generation_failure_exits_3_to_stderr(self, tmp_path, capsys, monkeypatch):
        from repro.synth.generator import DatasetGenerator
        from repro.util.errors import DataError

        def dead(self):
            raise DataError("generator broke")

        monkeypatch.setattr(DatasetGenerator, "generate", dead)
        rc = main(["--checkpoint-dir", str(tmp_path), "report"])
        captured = capsys.readouterr()
        assert rc == EXIT_GENERATION
        assert "generation failed" in captured.err
        assert "generator broke" in captured.err

    def test_analysis_failure_exits_4_to_stderr(self, tmp_path, capsys, monkeypatch):
        import repro.analysis.report as rpt

        def boom(dataset):
            raise ValueError("fig4 exploded")

        monkeypatch.setattr(rpt, "_fig4", boom)
        rc = main([
            "--scale", "0.02", "--checkpoint-dir", str(tmp_path),
            "experiment", "fig4",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_ANALYSIS
        assert "fig4 exploded" in captured.err

    def test_strict_dirty_data_exits_3(self, tmp_path, capsys):
        rc = main([
            "--scale", "0.02", "--inject-faults", "heavy", "--strict",
            "--checkpoint-dir", str(tmp_path), "report",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_GENERATION
        assert "quarantined" in captured.err


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["--scale", "0.03", "validate"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out


class TestTopology:
    def test_topology_summary(self, capsys):
        assert main(["--scale", "0.02", "topology"]) == 0
        out = capsys.readouterr().out
        assert "Kyivstar" in out
        assert "waw01" in out
        assert "degradation schedules" in out


class TestScenarios:
    def test_two_scenarios_compared(self, capsys):
        assert main(["--scale", "0.02", "scenarios", "--which", "paper", "no_war"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "no_war" in out
        assert "rtt_war" in out


class TestLive:
    def test_replay_resumes_to_byte_identical_artifacts(self, tmp_path, capsys):
        args = ["--scale", "0.02", "--checkpoint-dir", str(tmp_path / "ckpt")]
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(args + ["live", "replay", "--out", str(first)]) == 0
        assert "resumed" not in capsys.readouterr().err
        assert main(["--resume"] + args + ["live", "replay", "--out", str(second)]) == 0
        assert "resumed from checkpoint at day 2022-04-19" in capsys.readouterr().err
        for name in ("alerts.json", "window.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes()
