"""End-to-end orchestration: generate → inject → ingest → analyze.

This is what ``repro report`` / ``repro experiment`` execute.  The generate
stage is checkpointed under a key derived from the GeneratorConfig and the
:class:`Dataset` fields, so a run killed after generation can resume
without regenerating, and never loads a dataset of another shape; every
experiment runs with graceful degradation and the whole thing ends in a
:class:`ReportRun` whose ``render()`` is the CLI's output, whose ``tables``
are the report's tables by ``results/`` stem, and whose ``exit_code``
distinguishes generation from analysis failures.
:func:`full_report` renders the same experiments for a dataset in hand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.analysis.report import Section
from repro.faults.injector import FaultInjector, InjectionSummary
from repro.faults.profiles import FaultProfile
from repro.runtime.checkpoint import CheckpointStore, config_key
from repro.runtime.experiments import EXPERIMENT_NAMES, experiment_stages, run_experiments
from repro.runtime.ingest import sanitize_dataset
from repro.runtime.pipeline import PipelineRunner, RunReport, Stage, StageStatus
from repro.synth.generator import Dataset, DatasetGenerator, GeneratorConfig
from repro.tables.table import Table
from repro.tables.validate import GateResult

__all__ = [
    "DEFAULT_CHECKPOINT_DIR",
    "EXIT_ANALYSIS",
    "EXIT_GENERATION",
    "EXIT_OK",
    "ReportRun",
    "full_report",
    "run_pipeline",
]

#: Exit codes the CLI maps failures onto (argparse keeps 2 for usage).
EXIT_OK = 0
EXIT_GENERATION = 3
EXIT_ANALYSIS = 4

DEFAULT_CHECKPOINT_DIR = os.path.join("results", ".checkpoints")

#: Stages that belong to data production rather than analysis.
GENERATION_STAGES = ("generate", "inject-faults", "ingest")


@dataclass
class ReportRun:
    """Everything one orchestrated run produced.

    ``sections`` maps each successful experiment to its text; ``tables``
    maps each ``results/`` file stem to the table its section printed.
    """

    dataset: Optional[Dataset]
    sections: Dict[str, str]
    report: RunReport
    gates: Dict[str, GateResult] = field(default_factory=dict)
    injection: Optional[InjectionSummary] = None
    tables: Dict[str, Table] = field(default_factory=dict)

    @classmethod
    def from_sections(
        cls,
        dataset: Optional[Dataset],
        sections: Dict[str, Section],
        report: RunReport,
        **kwargs: Any,
    ) -> "ReportRun":
        """The run of these sections (name → :class:`Section`).

        Splits them into ``sections`` (name → text) and ``tables`` (stem →
        table, in report order); *kwargs* fill the other fields.
        """
        return cls(
            dataset=dataset,
            sections={name: s.text for name, s in sections.items()},
            report=report,
            tables={
                stem: t for s in sections.values() for stem, t in s.tables.items()
            },
            **kwargs,
        )

    @property
    def exit_code(self) -> int:
        failed = {r.name for r in self.report.failures()}
        if failed & set(GENERATION_STAGES):
            return EXIT_GENERATION
        if failed:
            return EXIT_ANALYSIS
        return EXIT_OK

    def data_quality_section(self) -> str:
        lines = ["== Data quality =="]
        if self.injection is not None:
            lines.append(str(self.injection))
        if self.gates:
            for name, gate in self.gates.items():
                lines.append(str(gate.report))
        if self.injection is None and not self.gates:
            lines.append("(no ingest gate in this run)")
        return "\n".join(lines)

    def render(self, include_report: bool = True) -> str:
        parts: List[str] = []
        if self.dataset is not None:
            parts.append(
                f"REPRODUCTION REPORT — {self.dataset.ndt.n_rows} NDT tests, "
                f"{self.dataset.traces.n_rows} traceroutes "
                f"(seed {self.dataset.config.seed}, "
                f"scale {self.dataset.config.scale})"
            )
        seen = set()
        for name, text in self.sections.items():
            if text in seen:  # shared sections (table3/5/6) print once
                continue
            seen.add(text)
            parts.append(text)
        for failure in self.report.failures():
            parts.append(
                f"== {failure.name}: FAILED ==\n{failure.error}\n"
                f"(full traceback in the run report)"
            )
        parts.append(self.data_quality_section())
        if include_report:
            parts.append(self.report.summary())
        return ("\n\n" + "=" * 72 + "\n\n").join(parts)


def _build_stages(
    config: GeneratorConfig,
    profile: Optional[FaultProfile],
    strict: bool,
    gates_out: Dict[str, GateResult],
    injection_out: List[InjectionSummary],
) -> List[Stage]:
    def generate(_ctx: Dict[str, Any]) -> Dataset:
        return DatasetGenerator(config).generate()

    def inject(ctx: Dict[str, Any]) -> Dataset:
        dirty, summary = FaultInjector(profile, seed=config.seed).inject_dataset(
            ctx["generate"]
        )
        injection_out.append(summary)
        obs.counter("faults.rows_injected").inc(summary.total)
        return dirty

    def ingest(ctx: Dict[str, Any]) -> Dataset:
        source = ctx.get("inject-faults", ctx["generate"])
        clean, gates = sanitize_dataset(source, strict=strict)
        gates_out.update(gates)
        return clean

    stages = [Stage(name="generate", fn=generate, checkpoint=True)]
    injecting = profile is not None and profile.total_rate > 0
    if injecting:
        stages.append(
            Stage(name="inject-faults", fn=inject, inputs=("generate",))
        )
    stages.append(
        Stage(
            name="ingest",
            fn=ingest,
            # ingest always evaluates ctx["generate"] (the .get default is
            # eager), so the generate edge must survive the injecting arm or
            # provenance.json drops it.
            inputs=("inject-faults", "generate") if injecting else ("generate",),
        )
    )
    return stages


def run_pipeline(
    config: GeneratorConfig,
    profile: Optional[FaultProfile] = None,
    strict: bool = False,
    resume: bool = False,
    checkpoint_dir: Optional[str] = DEFAULT_CHECKPOINT_DIR,
    experiments: Optional[Sequence[str]] = None,
    runner: Optional[PipelineRunner] = None,
) -> ReportRun:
    """Run the full pipeline; never raises for *experiment* failures.

    Generation-side failures (generate / inject / ingest) do raise
    :class:`~repro.util.errors.StageFailure` — without data there is
    nothing to degrade to.  The caller maps that onto ``EXIT_GENERATION``.
    """
    experiments = list(experiments) if experiments is not None else list(
        EXPERIMENT_NAMES
    )
    gates: Dict[str, GateResult] = {}
    injections: List[InjectionSummary] = []
    stages = _build_stages(config, profile, strict, gates, injections)
    stages += experiment_stages(experiments)

    if runner is None:
        store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        # The generate checkpoint pickles a Dataset, so its fields are part
        # of the key: a resumed run never loads one of another shape.
        shape = {"dataset_fields": [f.name for f in fields(Dataset)]}
        runner = PipelineRunner(
            checkpoints=store,
            key=config_key(config, extra=shape) if store else "",
            resume=resume,
        )
    try:
        context, report = runner.run(stages, {})
    except Exception as exc:  # repro-lint: disable=typed-errors (re-raised below)
        # Attach whatever partial state exists so the CLI can still print
        # a run report before exiting nonzero.
        report = getattr(exc, "report", None)
        if report is not None:
            exc.partial_run = ReportRun(
                dataset=None,
                sections={},
                report=report,
                gates=gates,
                injection=injections[0] if injections else None,
            )
        raise
    return ReportRun.from_sections(
        context.get("ingest"),
        {n: context[n] for n in experiments if n in context},
        report,
        gates=gates,
        injection=injections[0] if injections else None,
    )


def full_report(dataset: Dataset) -> str:
    """Every reproduced table and figure of *dataset*, as one text document.

    Runs the 18 experiments and renders them as ``repro report`` does,
    without the run report; a failed experiment prints as a FAILED block.
    """
    return ReportRun.from_sections(dataset, *run_experiments(dataset)).render(
        include_report=False
    )
