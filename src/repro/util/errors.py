"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one type at an API boundary without swallowing programming errors
(``TypeError``/``ValueError`` raised by argument validation deliberately do
*not* use this hierarchy).
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DataError(ReproError):
    """A table, column, or dataset is malformed or used inconsistently."""


class TopologyError(ReproError):
    """The AS graph or IP layer is invalid (unknown AS, no route, ...)."""


class CalibrationError(ReproError):
    """Calibration targets are missing or internally inconsistent."""


class AnalysisError(ReproError):
    """An analysis step cannot proceed (empty period, missing column, ...)."""


class PipelineError(ReproError):
    """The staged pipeline runtime cannot orchestrate a run."""


class StageFailure(PipelineError):
    """A named pipeline stage raised, and the run cannot continue past it.

    Carries the stage name and the cause so a run report (or an operator
    reading a log line) can tell *which* stage of *which* run died and
    why, without unpacking a raw traceback.  ``attempts`` is how many
    times the stage ran, always 1 since the runner runs each stage once;
    the argument stays because ``perfbench/test_perfbench.py`` builds
    ``StageFailure("generate", 1, cause)``.
    """

    def __init__(self, stage: str, attempts: int, cause: BaseException):
        self.stage = stage
        self.attempts = attempts
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {type(cause).__name__}: {cause}")


class StorageError(ReproError):
    """The artifact storage layer cannot read or write an on-disk artifact.

    Raised for I/O failures on the sanctioned write path (temp-file
    creation, fsync, rename).  Injected faults (``EIO`` / ``ENOSPC`` from
    the chaos filesystem) surface as this type too, so a caller catches
    one type for every I/O failure, real or injected.
    """


class ArtifactCorruptError(StorageError):
    """An on-disk artifact failed integrity verification.

    Torn writes, truncation, and bit-rot are *detected*, never silently
    accepted: a framed artifact with a bad magic, a short payload, or a
    checksum mismatch raises this type.  ``path`` is the offending file
    and ``quarantined_to`` is where the storage layer moved it (``None``
    when quarantine was disabled or impossible).
    """

    def __init__(self, path, reason: str, quarantined_to=None):
        self.path = str(path)
        self.reason = reason
        self.quarantined_to = quarantined_to
        msg = f"corrupt artifact {self.path}: {reason}"
        if quarantined_to:
            msg += f" (quarantined to {quarantined_to})"
        super().__init__(msg)


class CheckpointCorruptError(ArtifactCorruptError, PipelineError):
    """Every generation of a stage checkpoint failed verification.

    Also derives from :class:`PipelineError` so callers that treated the
    old untyped "corrupt checkpoint" failures as pipeline errors keep
    working; the pipeline itself catches this type on the resume path and
    falls back to a clean re-run of the stage.
    """


class NumericsError(ReproError, ArithmeticError):
    """A numeric routine failed to converge or left its domain.

    Also derives from ``ArithmeticError`` so callers that treated the old
    untyped raises as arithmetic failures keep working unchanged.
    """


class LintError(ReproError):
    """The static-analysis framework cannot run (bad baseline, bad rule id)."""


class ValidationFailure(DataError):
    """Strict-mode ingest rejected a table because rows failed validation.

    ``report`` is the :class:`repro.tables.validate.ValidationReport` that
    describes every quarantined row.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"validation of {report.name!r} failed: "
            f"{report.n_quarantined}/{report.n_input} rows quarantined "
            f"({report.top_reasons()})"
        )
