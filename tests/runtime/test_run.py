"""Tests for the orchestrated pipeline: resume, degradation, ingest gates."""

import pytest

from repro.faults import get_profile
from repro.runtime.checkpoint import CheckpointStore, config_key
from repro.runtime.experiments import EXPERIMENT_NAMES, experiment_registry, run_experiments
from repro.runtime.pipeline import PipelineRunner, StageStatus
from repro.runtime.run import (
    EXIT_ANALYSIS,
    EXIT_GENERATION,
    EXIT_OK,
    full_report,
    run_pipeline,
)
from repro.synth.generator import DatasetGenerator, GeneratorConfig
from repro.util.errors import AnalysisError, PipelineError, StageFailure

CONFIG = GeneratorConfig(seed=3, scale=0.02)


def make_runner(tmp_path, config=CONFIG, resume=False):
    store = CheckpointStore(str(tmp_path))
    return store, PipelineRunner(
        checkpoints=store, key=config_key(config), resume=resume
    )


class TestRunPipeline:
    def test_clean_run_is_ok_and_gated(self, tmp_path):
        _, runner = make_runner(tmp_path)
        run = run_pipeline(CONFIG, experiments=["fig2"], runner=runner)
        assert run.exit_code == EXIT_OK
        assert "Figure 2" in run.sections["fig2"]
        assert run.dataset is not None
        for gate in run.gates.values():
            assert gate.report.clean
            assert gate.clean.n_rows + gate.quarantine.n_rows == gate.report.n_input
        assert "run report" in run.render()

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="unknown experiments"):
            run_pipeline(CONFIG, experiments=["fig99"], checkpoint_dir=str(tmp_path))

    def test_resume_skips_a_checkpoint_keyed_by_the_config_alone(self, tmp_path):
        # Older code keyed the generate checkpoint by the config alone and
        # pickled a Dataset of another shape: resuming must regenerate.
        CheckpointStore(str(tmp_path)).save(
            config_key(CONFIG), "generate", "a dataset of another shape"
        )
        first = run_pipeline(
            CONFIG, experiments=[], resume=True, checkpoint_dir=str(tmp_path)
        )
        assert first.report.result("generate").status is StageStatus.OK
        again = run_pipeline(
            CONFIG, experiments=[], resume=True, checkpoint_dir=str(tmp_path)
        )
        assert again.report.result("generate").status is StageStatus.CACHED

    def test_killed_after_generate_resumes_from_checkpoint(self, tmp_path):
        # First run "dies" right after the generate stage: the ingest stage
        # raises, which aborts the run — but generate's checkpoint survives.
        store, runner = make_runner(tmp_path)
        registry_names = []  # no experiments needed to prove the point

        def sabotage(dataset, strict=False):
            raise ValueError("killed mid-run")

        import repro.runtime.run as run_mod

        original = run_mod.sanitize_dataset
        run_mod.sanitize_dataset = sabotage
        try:
            with pytest.raises(StageFailure, match="ingest"):
                run_pipeline(CONFIG, experiments=registry_names, runner=runner)
        finally:
            run_mod.sanitize_dataset = original
        assert store.has(config_key(CONFIG), "generate")
        assert store.hits == 0

        # Second run with --resume must skip regeneration: checkpoint hit.
        store2, runner2 = make_runner(tmp_path, resume=True)
        run = run_pipeline(CONFIG, experiments=["fig2"], resume=True, runner=runner2)
        assert run.exit_code == EXIT_OK
        assert run.report.result("generate").status is StageStatus.CACHED
        assert store2.hits == 1

    def test_failing_experiment_degrades_not_aborts(self, tmp_path, monkeypatch):
        import repro.analysis.report as rpt

        def boom(dataset):
            raise ValueError("experiment exploded")

        monkeypatch.setattr(rpt, "_fig4", boom)
        _, runner = make_runner(tmp_path)
        run = run_pipeline(CONFIG, experiments=["fig2", "fig4"], runner=runner)
        assert run.exit_code == EXIT_ANALYSIS
        assert "fig2" in run.sections and "fig4" not in run.sections
        failure = run.report.result("fig4")
        assert failure.status is StageStatus.FAILED
        assert "experiment exploded" in failure.error
        assert "Traceback" in failure.traceback
        rendered = run.render()
        assert "fig4: FAILED" in rendered and "Figure 2" in rendered

    def test_generation_failure_raises_with_partial_run(self, tmp_path, monkeypatch):
        from repro.synth.generator import DatasetGenerator
        from repro.util.errors import DataError

        def dead(self):
            raise DataError("generator broke")

        monkeypatch.setattr(DatasetGenerator, "generate", dead)
        _, runner = make_runner(tmp_path)
        with pytest.raises(StageFailure, match="generate") as excinfo:
            run_pipeline(CONFIG, experiments=["fig2"], runner=runner)
        partial = excinfo.value.partial_run
        assert partial.exit_code == EXIT_GENERATION
        assert partial.report.result("generate").status is StageStatus.FAILED
        assert partial.report.result("fig2").status is StageStatus.SKIPPED

    def test_faulted_run_quarantines_and_completes(self, tmp_path):
        _, runner = make_runner(tmp_path)
        run = run_pipeline(
            CONFIG,
            profile=get_profile("default"),
            experiments=["fig2", "table1"],
            runner=runner,
        )
        assert run.exit_code == EXIT_OK
        assert run.injection is not None and run.injection.total > 0
        assert any(not g.report.clean for g in run.gates.values())
        for gate in run.gates.values():
            assert gate.clean.n_rows + gate.quarantine.n_rows == gate.report.n_input
        assert "quarantined" in run.render()

    def test_strict_mode_fails_generation_side_on_dirty_data(self, tmp_path):
        _, runner = make_runner(tmp_path)
        with pytest.raises(StageFailure, match="ingest") as excinfo:
            run_pipeline(
                CONFIG,
                profile=get_profile("default"),
                strict=True,
                experiments=["fig2"],
                runner=runner,
            )
        assert excinfo.value.partial_run.exit_code == EXIT_GENERATION


class TestExperimentRegistry:
    def test_registry_covers_all_18_names(self):
        registry = experiment_registry()
        assert tuple(registry) == EXPERIMENT_NAMES
        assert len(EXPERIMENT_NAMES) == 18

    def test_run_experiments_shares_section_functions(self, small_dataset):
        # table3/5/6 share one section fn; the cache must compute it once.
        calls = []
        import repro.analysis.report as rpt

        original = rpt._tables_3_5_6

        def counting(dataset):
            calls.append(1)
            return original(dataset)

        rpt._tables_3_5_6 = counting
        try:
            sections, report = run_experiments(
                small_dataset,
                names=["table3", "table5", "table6"],
                runner=PipelineRunner(),
            )
        finally:
            rpt._tables_3_5_6 = original
        assert report.ok
        assert len(calls) == 1
        assert sections["table3"] == sections["table5"] == sections["table6"]

    def test_run_experiments_unknown_name(self, small_dataset):
        with pytest.raises(PipelineError, match="unknown"):
            run_experiments(small_dataset, names=["not-a-thing"])


class TestOneFailurePath:
    """Only the typed refusal of a small dataset prints as a skipped line."""

    def test_untyped_error_fails_its_experiments(self, tmp_path, monkeypatch):
        import repro.analysis.report as rpt

        def broken(ndt, traces):
            raise RuntimeError("figure 9 bug")

        monkeypatch.setattr(rpt, "path_performance", broken)
        _, runner = make_runner(tmp_path)
        run = run_pipeline(
            CONFIG, experiments=["fig2", "table2", "fig9"], runner=runner
        )
        assert run.exit_code == EXIT_ANALYSIS
        assert list(run.sections) == ["fig2"]
        for name in ("table2", "fig9"):
            failure = run.report.result(name)
            assert failure.status is StageStatus.FAILED
            assert "figure 9 bug" in failure.error
            assert "Traceback" in failure.traceback
        assert "skipped" not in run.render()

    @pytest.mark.parametrize(
        "target, names",
        [
            ("as_change_table", ["table3", "table5", "table6"]),
            ("path_performance", ["table2", "fig9"]),
        ],
    )
    def test_failing_shared_section_runs_once(
        self, tmp_path, monkeypatch, target, names
    ):
        import repro.analysis.report as rpt

        calls = []

        def broken(*args):
            calls.append(1)
            raise RuntimeError(f"{target} bug")

        monkeypatch.setattr(rpt, target, broken)
        _, runner = make_runner(tmp_path)
        run = run_pipeline(CONFIG, experiments=names, runner=runner)
        assert len(calls) == 1
        assert run.exit_code == EXIT_ANALYSIS
        assert run.sections == {}
        failures = run.report.failures()
        assert [f.name for f in failures] == names
        assert {f.error for f in failures} == {f"RuntimeError: {target} bug"}
        # every name shows the section's own traceback, not a stack of
        # earlier re-raises
        assert len({f.traceback for f in failures}) == 1

    def test_analysis_error_prints_the_skipped_line(self, tmp_path, monkeypatch):
        import repro.analysis.report as rpt

        def refused(ndt, traces):
            raise AnalysisError("no persistent connections")

        monkeypatch.setattr(rpt, "path_performance", refused)
        _, runner = make_runner(tmp_path)
        run = run_pipeline(CONFIG, experiments=["table2", "fig9"], runner=runner)
        assert run.exit_code == EXIT_OK
        assert "(Figure 9 skipped: no persistent connections)" in run.sections["fig9"]


class TestFullReport:
    def test_prints_what_the_pipeline_prints(self):
        # Header and every section match `repro report`; only the data
        # quality block differs (a dataset in hand passed no ingest gate).
        separator = "\n\n" + "=" * 72 + "\n\n"
        config = GeneratorConfig(scale=0.05)
        run = run_pipeline(config, checkpoint_dir=None)
        assert run.exit_code == EXIT_OK
        text = full_report(DatasetGenerator(config).generate())
        parts = text.split(separator)
        assert parts[:-1] == run.render(include_report=False).split(separator)[:-1]
        assert parts[1:-1] == list(dict.fromkeys(run.sections.values()))
        assert parts[-1] == "== Data quality ==\n(no ingest gate in this run)"
