"""Tests for the staged pipeline executor: one run, checkpoints, degradation."""

import pytest

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.pipeline import PipelineRunner, Stage, StageStatus
from repro.util.errors import PipelineError, ReproError, StageFailure


class TestBasicExecution:
    def test_stages_run_in_order_over_shared_context(self):
        stages = [
            Stage(name="a", fn=lambda ctx: 1),
            Stage(name="b", fn=lambda ctx: ctx["a"] + 1),
        ]
        context, report = PipelineRunner().run(stages)
        assert context["a"] == 1 and context["b"] == 2
        assert report.ok
        assert [r.status for r in report.results] == [StageStatus.OK] * 2

    def test_report_records_attempts_and_duration(self):
        calls = []
        clock = iter(range(100))
        r = PipelineRunner(clock=lambda: next(clock))
        _, report = r.run([Stage(name="a", fn=lambda ctx: calls.append(1))])
        result = report.result("a")
        assert len(calls) == 1  # one attempt: stages are never retried
        assert result.status is StageStatus.OK
        assert result.duration_s >= 0

    def test_duplicate_stage_names_rejected(self):
        stages = [Stage(name="x", fn=lambda c: 1), Stage(name="x", fn=lambda c: 2)]
        with pytest.raises(PipelineError, match="duplicate"):
            PipelineRunner().run(stages)

    def test_unknown_stage_in_report_raises(self):
        _, report = PipelineRunner().run([Stage(name="a", fn=lambda c: 1)])
        with pytest.raises(PipelineError, match="nope"):
            report.result("nope")


class TestRetry:
    """No stage is retried: each is a deterministic function of its inputs,
    so a stage that raised would raise the same way again."""

    def test_non_retryable_exception_not_retried(self):
        calls = []

        def fails(ctx):
            calls.append(1)
            raise ValueError("boom")

        _, report = PipelineRunner().run(
            [Stage(name="a", fn=fails, allow_failure=True)]
        )
        assert report.result("a").status is StageStatus.FAILED
        with pytest.raises(StageFailure):
            PipelineRunner().run([Stage(name="a", fn=fails)])
        assert len(calls) == 2  # one run per pipeline


class TestFailureModes:
    def test_fatal_failure_raises_stage_failure_with_report(self):
        def boom(ctx):
            raise ValueError("dead")

        stages = [
            Stage(name="a", fn=lambda c: 1),
            Stage(name="b", fn=boom),
            Stage(name="c", fn=lambda c: 3),
        ]
        with pytest.raises(StageFailure, match="stage 'b' failed") as excinfo:
            PipelineRunner().run(stages)
        exc = excinfo.value
        assert isinstance(exc, ReproError)
        assert exc.stage == "b" and isinstance(exc.cause, ValueError)
        report = exc.report
        assert report.result("a").status is StageStatus.OK
        assert report.result("b").status is StageStatus.FAILED
        assert report.result("c").status is StageStatus.SKIPPED

    def test_allow_failure_degrades_gracefully(self):
        def boom(ctx):
            raise ValueError("dead")

        stages = [
            Stage(name="a", fn=lambda c: 1),
            Stage(name="b", fn=boom, allow_failure=True),
            Stage(name="c", fn=lambda c: 3),
        ]
        context, report = PipelineRunner().run(stages)
        assert context["c"] == 3 and "b" not in context
        assert not report.ok
        failure = report.result("b")
        assert failure.status is StageStatus.FAILED
        assert "ValueError: dead" in failure.error
        assert "Traceback" in failure.traceback

    def test_degraded_failure_leaves_no_error_in_context(self):
        def boom(ctx):
            raise ValueError("dead")

        stages = [
            Stage(name="a", fn=boom, allow_failure=True),
            Stage(name="b", fn=lambda c: 2),
        ]
        context, _report = PipelineRunner().run(stages)
        assert sorted(context) == ["__report__", "b"]

    def test_summary_mentions_failures(self):
        stages = [
            Stage(
                name="b",
                fn=lambda c: (_ for _ in ()).throw(ValueError("x")),
                allow_failure=True,
            )
        ]
        _, report = PipelineRunner().run(stages)
        text = report.summary()
        assert "failed" in text and "b" in text


class TestCheckpointing:
    def test_resume_loads_instead_of_recomputing(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        calls = []

        def expensive(ctx):
            calls.append(1)
            return "value"

        stage = [Stage(name="gen", fn=expensive, checkpoint=True)]
        r1 = PipelineRunner(checkpoints=store, key="k")
        r1.run(stage)
        assert calls == [1]

        r2 = PipelineRunner(
            checkpoints=store, key="k", resume=True
        )
        context, report = r2.run(stage)
        assert calls == [1]  # not recomputed
        assert context["gen"] == "value"
        assert report.result("gen").status is StageStatus.CACHED
        assert store.hits == 1

    def test_without_resume_recomputes_and_overwrites(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        calls = []
        stage = [
            Stage(name="gen", fn=lambda c: calls.append(1) or len(calls), checkpoint=True)
        ]
        PipelineRunner(checkpoints=store, key="k").run(stage)
        PipelineRunner(checkpoints=store, key="k").run(stage)
        assert len(calls) == 2
        assert store.hits == 0

    def test_store_requires_key(self, tmp_path):
        with pytest.raises(PipelineError, match="key"):
            PipelineRunner(checkpoints=CheckpointStore(str(tmp_path)))


class TestAttemptTiming:
    def test_successful_stage_records_one_attempt(self):
        clock = iter(float(i) for i in range(100))
        r = PipelineRunner(clock=clock.__next__)
        _, report = r.run([Stage(name="a", fn=lambda c: None)])
        # one clock read before the stage's one run, one after it
        assert report.result("a").duration_s == 1.0


class TestRowFlow:
    class FakeTable:
        def __init__(self, n):
            self.n_rows = n

    def test_rows_flow_between_stages(self):
        stages = [
            Stage(name="gen", fn=lambda c: self.FakeTable(100)),
            Stage(name="filter", fn=lambda c: self.FakeTable(90)),
            Stage(name="render", fn=lambda c: "text section"),
        ]
        _, report = PipelineRunner().run(stages)
        gen, filt, render = report.results
        assert gen.rows_in is None and gen.rows_out == 100
        assert filt.rows_in == 100 and filt.rows_out == 90
        # text stages expose no rows; the last row count flows past them
        assert render.rows_in == 90 and render.rows_out is None

    def test_value_row_count_duck_typing(self):
        from repro.runtime.pipeline import value_row_count

        class FakeDataset:
            ndt = TestRowFlow.FakeTable(7)
            traces = TestRowFlow.FakeTable(5)

        assert value_row_count(self.FakeTable(3)) == 3
        assert value_row_count(FakeDataset()) == 12
        assert value_row_count("a string") is None
        assert value_row_count(None) is None


class TestObsIntegration:
    @pytest.fixture(autouse=True)
    def _reset_obs(self):
        from repro import obs

        obs.reset()
        yield
        obs.reset()

    def test_stage_spans_and_counters_recorded(self):
        from repro import obs

        obs.enable(trace=True, metrics=True)

        def boom(ctx):
            raise ValueError("dead")

        PipelineRunner().run(
            [
                Stage(name="a", fn=lambda c: "ok"),
                Stage(name="b", fn=boom, allow_failure=True),
            ]
        )
        spans = obs.tracer().find("stage.a")
        assert len(spans) == 1
        assert spans[0].attrs == {"kind": "stage", "status": "ok", "rows_out": None}
        assert obs.tracer().find("stage.b")[0].attrs["status"] == "failed"
        snap = obs.metrics_snapshot()
        assert snap["counters"]["pipeline.stage_failures"] == 1

    def test_failed_stage_span_marked(self):
        from repro import obs

        obs.enable(trace=True, metrics=True)

        def boom(ctx):
            raise ValueError("dead")

        with pytest.raises(StageFailure):
            PipelineRunner().run([Stage(name="a", fn=boom)])
        span = obs.tracer().find("stage.a")[0]
        assert span.attrs["status"] == "failed"
        assert span.end_s is not None
        assert obs.metrics_snapshot()["counters"]["pipeline.stage_failures"] == 1

    def test_pipeline_untraced_when_obs_off(self):
        from repro import obs

        _, report = PipelineRunner().run([Stage(name="a", fn=lambda c: 1)])
        assert report.ok
        assert obs.tracer() is None


class TestResumeRecovery:
    def test_corrupt_checkpoint_recomputes_instead_of_dying(self, tmp_path):
        import glob
        import os

        store = CheckpointStore(str(tmp_path))
        calls = []
        stage = [
            Stage(name="gen", fn=lambda c: calls.append(1) or "value", checkpoint=True)
        ]
        PipelineRunner(checkpoints=store, key="k").run(stage)
        for path in glob.glob(os.path.join(str(tmp_path), "k", "gen.g*")):
            with open(path, "r+b") as fh:
                fh.write(b"XXXX")

        r2 = PipelineRunner(
            checkpoints=store, key="k", resume=True
        )
        context, report = r2.run(stage)
        assert calls == [1, 1]  # recomputed, not crashed
        assert context["gen"] == "value"
        assert report.result("gen").status is StageStatus.OK

    def test_recompute_after_corruption_rewrites_checkpoint(self, tmp_path):
        import glob
        import os

        store = CheckpointStore(str(tmp_path))
        stage = [Stage(name="gen", fn=lambda c: "value", checkpoint=True)]
        PipelineRunner(checkpoints=store, key="k").run(stage)
        for path in glob.glob(os.path.join(str(tmp_path), "k", "gen.g*")):
            with open(path, "r+b") as fh:
                fh.write(b"XXXX")
        PipelineRunner(
            checkpoints=store, key="k", resume=True
        ).run(stage)

        # The rewritten generation must now satisfy a fresh resume.
        r3 = PipelineRunner(
            checkpoints=store, key="k", resume=True
        )
        _, report = r3.run(stage)
        assert report.result("gen").status is StageStatus.CACHED
