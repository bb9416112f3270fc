"""Tests for the typed error hierarchy."""

import pytest

from repro.tables.validate import ValidationReport
from repro.util.errors import (
    AnalysisError,
    CalibrationError,
    DataError,
    PipelineError,
    ReproError,
    StageFailure,
    TopologyError,
    ValidationFailure,
)

SIMPLE_ERRORS = [
    ReproError,
    DataError,
    TopologyError,
    CalibrationError,
    AnalysisError,
    PipelineError,
]


def make_report():
    return ValidationReport(
        name="ndt", n_input=10, n_passed=7, n_quarantined=3,
        reasons={"tput:not-positive": 2, "test_id:duplicate": 1},
    )


class TestHierarchy:
    @pytest.mark.parametrize("cls", SIMPLE_ERRORS)
    def test_every_subclass_constructible_and_catchable(self, cls):
        with pytest.raises(ReproError, match="boom"):
            raise cls("boom")

    def test_stage_failure_is_pipeline_error(self):
        exc = StageFailure("generate", 1, ValueError("disk full"))
        assert isinstance(exc, PipelineError)
        assert isinstance(exc, ReproError)

    def test_validation_failure_is_data_error(self):
        exc = ValidationFailure(make_report())
        assert isinstance(exc, DataError)
        assert isinstance(exc, ReproError)

    def test_analysis_error_not_a_data_error(self):
        # Analysis and data errors are siblings: catching one must not
        # swallow the other.
        assert not issubclass(AnalysisError, DataError)
        assert not issubclass(DataError, AnalysisError)


class TestContextInStr:
    def test_stage_failure_carries_stage_attempts_cause(self):
        cause = ValueError("disk full")
        exc = StageFailure("generate", 1, cause)
        assert exc.stage == "generate"
        assert exc.attempts == 1
        assert exc.cause is cause
        assert str(exc) == "stage 'generate' failed: ValueError: disk full"

    def test_stage_failure_singular_attempt(self):
        # each stage runs once, so the message does not count attempts
        text = str(StageFailure("x", 1, RuntimeError("y")))
        assert text == "stage 'x' failed: RuntimeError: y"
        assert "attempt" not in text

    def test_validation_failure_carries_report(self):
        exc = ValidationFailure(make_report())
        assert exc.report.n_quarantined == 3
        text = str(exc)
        assert "ndt" in text and "3/10" in text and "tput:not-positive" in text


class TestApiBoundary:
    def test_cli_boundary_catches_everything_typed(self):
        # The CLI's last-resort handler catches ReproError; every typed
        # error the library can raise must funnel into it.
        for cls in SIMPLE_ERRORS:
            try:
                raise cls("x")
            except ReproError:
                pass
        try:
            raise StageFailure("s", 1, ValueError("v"))
        except ReproError:
            pass
        try:
            raise ValidationFailure(make_report())
        except ReproError:
            pass
