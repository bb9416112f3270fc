"""The 18 named experiments, runnable individually with graceful degradation.

Each experiment maps a :class:`~repro.synth.generator.Dataset` to the
:class:`~repro.analysis.report.Section` the paper's report prints for it
(its text and its tables); the section functions live in
:mod:`repro.analysis.report`.  :func:`experiment_stages` turns any subset
into pipeline stages with ``allow_failure=True``: one experiment dying
(with its traceback captured in the run report) never stops the other
seventeen.  :func:`~repro.runtime.run.run_pipeline` appends them after
ingest, and :func:`run_experiments` runs them over a dataset in hand.
"""

from __future__ import annotations

from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import Section
from repro.runtime.pipeline import PipelineRunner, RunReport, Stage
from repro.synth.generator import Dataset
from repro.util.errors import PipelineError

__all__ = [
    "EXPERIMENT_NAMES",
    "experiment_registry",
    "experiment_stages",
    "run_experiments",
]

ExperimentFn = Callable[[Dataset], Section]


def experiment_registry() -> Dict[str, ExperimentFn]:
    """Name → section function for all 18 experiments, in report order.

    The functions are read from :mod:`repro.analysis.report` at call time,
    so a wrapper installed on that module (a tracer, a test's stub) is the
    one that runs.
    """
    from repro.analysis import report as rpt

    return {
        "fig2": rpt._fig2,
        "table1": rpt._table1,
        "fig3": rpt._fig3_table4,
        "table4": rpt._fig3_table4,
        "fig4": rpt._fig4,
        "table2": rpt._table2_fig9,
        "fig9": rpt._table2_fig9,
        "table3": rpt._tables_3_5_6,
        "table5": rpt._tables_3_5_6,
        "table6": rpt._tables_3_5_6,
        "fig5": rpt._fig5,
        "fig6": rpt._fig6,
        "fig7": rpt._figs7_8,
        "fig8": rpt._figs7_8,
        "churn": rpt._churn,
        "events": rpt._events,
        "outages": rpt._outages,
        "hopgeo": rpt._hopgeo,
    }


EXPERIMENT_NAMES: Tuple[str, ...] = tuple(experiment_registry())


def experiment_stages(names: Sequence[str]) -> List[Stage]:
    """One degradable stage per named experiment, reading ``ingest``.

    Raises :class:`~repro.util.errors.PipelineError` for an unknown name.
    Experiments that share a section function (e.g. table3/5/6) run it
    once: the later stages reuse its section, or re-raise the exception it
    raised (with its traceback), so every name fails with the same error.
    """
    registry = experiment_registry()
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise PipelineError(
            f"unknown experiments {unknown}; available: {sorted(registry)}"
        )
    outcomes: Dict[ExperimentFn, Union[Section, Tuple[Exception, TracebackType]]] = {}

    def section(fn: ExperimentFn) -> Callable[[Dict[str, Any]], Section]:
        def run(ctx: Dict[str, Any]) -> Section:
            if fn not in outcomes:
                try:
                    outcomes[fn] = fn(ctx["ingest"])
                except Exception as exc:  # repro-lint: disable=typed-errors (re-raised to every name)
                    outcomes[fn] = (exc, exc.__traceback__)
            outcome = outcomes[fn]
            if isinstance(outcome, tuple):
                exc, tb = outcome
                raise exc.with_traceback(tb)
            return outcome

        return run

    return [
        Stage(name=n, fn=section(registry[n]), allow_failure=True, inputs=("ingest",))
        for n in names
    ]


def run_experiments(
    dataset: Dataset,
    names: Optional[Sequence[str]] = None,
    runner: Optional[PipelineRunner] = None,
) -> Tuple[Dict[str, Section], RunReport]:
    """Run the named experiments (default: all 18) over *dataset*.

    Returns the successful sections (name → :class:`Section`) and the run
    report in which every failed experiment carries its error and
    traceback.
    """
    names = list(names) if names is not None else list(EXPERIMENT_NAMES)
    stages = experiment_stages(names)
    context, report = (runner or PipelineRunner()).run(stages, {"ingest": dataset})
    return {n: context[n] for n in names if n in context}, report
