"""The staged pipeline executor: checkpoints, failure capture, a run report.

A pipeline is a list of named :class:`Stage` objects executed in order over
a shared context dict.  Each stage runs once — every stage is a
deterministic function of a seeded dataset, so a stage that fails would
fail the same way again — and gets:

* **checkpointing** — stages marked ``checkpoint=True`` persist their
  return value keyed by (config hash, seed); a resumed run loads the value
  instead of recomputing it;
* **timing and error capture** — each stage's duration, error and
  traceback land in the :class:`RunReport`;
* **graceful degradation** — stages marked ``allow_failure=True`` record
  their failure and let the rest of the pipeline run; fatal stages raise
  :class:`~repro.util.errors.StageFailure`.

Observability: when ``repro.obs`` is enabled, every stage runs inside a
``stage.<name>`` span carrying rows out and status; a failed stage bumps
the ``pipeline.stage_failures`` counter; log lines are attributed to the
stage via :func:`repro.obs.stage_scope`.  With lineage on, each stage's
declared ``inputs`` and its output value are content-fingerprinted into
the provenance DAG (:mod:`repro.obs.lineage`); with metrics on,
table-shaped stage values publish ``table.bytes.*`` / ``table.rows.*``
gauges (:mod:`repro.obs.memory`).  All of it is free when obs is off.
"""

from __future__ import annotations

import enum
import traceback as _tb
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.faults.crashpoints import crash_point
from repro.obs.clock import monotonic
from repro.obs.memory import record_value_memory
from repro.runtime.checkpoint import CheckpointStore
from repro.util.errors import CheckpointCorruptError, PipelineError, StageFailure

__all__ = [
    "PipelineRunner",
    "RunReport",
    "Stage",
    "StageResult",
    "StageStatus",
    "value_row_count",
]

logger = obs.get_logger(__name__)


class StageStatus(enum.Enum):
    OK = "ok"
    CACHED = "cached"  # value came from a checkpoint (resume hit)
    FAILED = "failed"
    SKIPPED = "skipped"  # an upstream fatal failure prevented the run


@dataclass(frozen=True)
class Stage:
    """One named unit of pipeline work.

    ``fn`` receives the shared context dict and returns the stage value,
    which the runner stores under ``context[name]`` for later stages.
    ``inputs`` names the upstream stages this one reads from the context —
    declared, not inferred, so the lineage recorder gets exact provenance
    edges instead of guesses.
    """

    name: str
    fn: Callable[[Dict[str, Any]], Any]
    checkpoint: bool = False
    allow_failure: bool = False
    inputs: Tuple[str, ...] = ()


@dataclass
class StageResult:
    """What happened to one stage: status, timing, rows, error.

    ``rows_in`` / ``rows_out`` are the table/dataset row counts flowing
    through the stage where the values expose them (``None`` otherwise —
    e.g. text sections).
    """

    name: str
    status: StageStatus
    duration_s: float = 0.0
    error: Optional[str] = None
    traceback: Optional[str] = None
    rows_in: Optional[int] = None
    rows_out: Optional[int] = None


@dataclass
class RunReport:
    """The full account of one pipeline run."""

    key: str
    results: List[StageResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(
            r.status in (StageStatus.OK, StageStatus.CACHED) for r in self.results
        )

    def failures(self) -> List[StageResult]:
        return [r for r in self.results if r.status is StageStatus.FAILED]

    def result(self, name: str) -> StageResult:
        for r in self.results:
            if r.name == name:
                return r
        raise PipelineError(f"no stage {name!r} in run report")

    def summary(self) -> str:
        lines = [f"run report (key {self.key or '-'}):"]
        for r in self.results:
            line = f"  {r.name:<24s} {r.status.value:<7s} {r.duration_s:7.2f}s"
            if r.error:
                line += f"  {r.error.splitlines()[0]}"
            lines.append(line)
        n_failed = len(self.failures())
        lines.append(
            f"  {len(self.results)} stages, "
            f"{sum(1 for r in self.results if r.status is StageStatus.CACHED)} cached, "
            f"{n_failed} failed"
        )
        return "\n".join(lines)


def value_row_count(value: Any) -> Optional[int]:
    """Row count of a stage value, if it is table- or dataset-shaped.

    Tables expose ``n_rows``; datasets expose ``ndt``/``traces`` tables.
    Anything else (report sections, scalars) counts as ``None``.
    """
    n = getattr(value, "n_rows", None)
    if isinstance(n, int):
        return n
    ndt = getattr(value, "ndt", None)
    traces = getattr(value, "traces", None)
    if ndt is not None and traces is not None:
        n_ndt = getattr(ndt, "n_rows", None)
        n_traces = getattr(traces, "n_rows", None)
        if isinstance(n_ndt, int) and isinstance(n_traces, int):
            return n_ndt + n_traces
    return None


class PipelineRunner:
    """Executes stages in order over a context dict.

    Parameters
    ----------
    checkpoints / key:
        Where and under which key checkpointable stage values persist.
        With no store, checkpoint flags are ignored.
    resume:
        Load checkpointed values where present instead of recomputing.
    clock:
        Injectable for tests.
    """

    def __init__(
        self,
        checkpoints: Optional[CheckpointStore] = None,
        key: str = "",
        resume: bool = False,
        clock: Callable[[], float] = monotonic,
    ):
        if checkpoints is not None and not key:
            raise PipelineError("a checkpoint store needs a nonempty run key")
        self.checkpoints = checkpoints
        self.key = key
        self.resume = resume
        self._clock = clock

    # -- execution ----------------------------------------------------------
    def run(
        self, stages: Sequence[Stage], context: Optional[Dict[str, Any]] = None
    ) -> Tuple[Dict[str, Any], RunReport]:
        """Run every stage; returns the final context and the run report."""
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise PipelineError(f"duplicate stage names: {dupes}")
        context = context if context is not None else {}
        report = RunReport(key=self.key)
        recorder = obs.active_lineage()
        if recorder is not None:
            recorder.set_run(config_key=self.key)
        failed_fatal: Optional[StageFailure] = None
        rows_flowing: Optional[int] = None
        for stage in stages:
            if failed_fatal is not None:
                report.results.append(
                    StageResult(name=stage.name, status=StageStatus.SKIPPED)
                )
                if recorder is not None:
                    recorder.record_stage(
                        stage.name,
                        inputs={n: None for n in stage.inputs},
                        status=StageStatus.SKIPPED.value,
                    )
                continue
            result = self._run_stage(stage, context)
            result.rows_in = rows_flowing
            if result.rows_out is not None:
                rows_flowing = result.rows_out
            report.results.append(result)
            if recorder is not None:
                recorder.record_stage(
                    stage.name,
                    value=context.get(stage.name),
                    inputs={n: context.get(n) for n in stage.inputs},
                    status=result.status.value,
                )
            record_value_memory(stage.name, context.get(stage.name))
            if result.status is StageStatus.FAILED and not stage.allow_failure:
                failed_fatal = StageFailure(
                    stage.name, 1, context.pop("__last_error__")
                )
        context["__report__"] = report
        if failed_fatal is not None:
            failed_fatal.report = report
            raise failed_fatal
        return context, report

    def _run_stage(self, stage: Stage, context: Dict[str, Any]) -> StageResult:
        with obs.span(f"stage.{stage.name}", kind="stage") as span, \
                obs.stage_scope(stage.name):
            result = self._run_stage_inner(stage, context)
            span.set(status=result.status.value, rows_out=result.rows_out)
        return result

    def _run_stage_inner(self, stage: Stage, context: Dict[str, Any]) -> StageResult:
        start = self._clock()
        if (
            self.resume
            and self.checkpoints is not None
            and stage.checkpoint
            and self.checkpoints.has(self.key, stage.name)
        ):
            try:
                value = self.checkpoints.load(self.key, stage.name)
            except CheckpointCorruptError as exc:
                # Corruption is detected, quarantined, and *recovered from*:
                # the stage simply recomputes, exactly as on a cache miss.
                logger.warning(
                    "stage %s: checkpoint corrupt (%s); recomputing",
                    stage.name, exc,
                )
            else:
                context[stage.name] = value
                logger.info("stage %s: loaded from checkpoint", stage.name)
                return StageResult(
                    name=stage.name,
                    status=StageStatus.CACHED,
                    duration_s=self._clock() - start,
                    rows_out=value_row_count(value),
                )

        logger.debug("stage %s: starting", stage.name)
        try:
            value = stage.fn(context)
        except Exception as exc:  # repro-lint: disable=typed-errors (captured into the run report)
            obs.counter("pipeline.stage_failures").inc()
            logger.error(
                "stage %s: failed: %s: %s", stage.name, type(exc).__name__, exc
            )
            context["__last_error__"] = exc
            return StageResult(
                name=stage.name,
                status=StageStatus.FAILED,
                duration_s=self._clock() - start,
                error=f"{type(exc).__name__}: {exc}",
                traceback="".join(
                    _tb.format_exception(type(exc), exc, exc.__traceback__)
                ),
            )
        context[stage.name] = value
        if self.checkpoints is not None and stage.checkpoint:
            self.checkpoints.save(self.key, stage.name, value)
        crash_point(f"stage.{stage.name}:done")
        duration_s = self._clock() - start
        logger.debug("stage %s: ok in %.3fs", stage.name, duration_s)
        return StageResult(
            name=stage.name,
            status=StageStatus.OK,
            duration_s=duration_s,
            rows_out=value_row_count(value),
        )
