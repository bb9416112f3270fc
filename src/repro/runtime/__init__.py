"""Fault-tolerant pipeline runtime.

The staged executor (:mod:`repro.runtime.pipeline`) runs
generate → inject → ingest → analyze as named stages, each once, with
per-stage checkpointing keyed by (config hash, seed) with resume,
per-stage timing/error capture, and graceful degradation for the 18
experiments.  :mod:`repro.runtime.ingest` is the quarantine gate;
:mod:`repro.runtime.run` is the end-to-end orchestration the CLI calls.
"""

from repro.runtime.checkpoint import CheckpointStore, config_key
from repro.runtime.experiments import (
    EXPERIMENT_NAMES,
    experiment_registry,
    run_experiments,
)
from repro.runtime.ingest import ndt_rules, sanitize_dataset, trace_rules
from repro.runtime.pipeline import (
    PipelineRunner,
    RunReport,
    Stage,
    StageResult,
    StageStatus,
)
from repro.runtime.run import (
    DEFAULT_CHECKPOINT_DIR,
    EXIT_ANALYSIS,
    EXIT_GENERATION,
    EXIT_OK,
    ReportRun,
    run_pipeline,
)

__all__ = [
    "DEFAULT_CHECKPOINT_DIR",
    "EXIT_ANALYSIS",
    "EXIT_GENERATION",
    "EXIT_OK",
    "EXPERIMENT_NAMES",
    "CheckpointStore",
    "PipelineRunner",
    "ReportRun",
    "RunReport",
    "Stage",
    "StageResult",
    "StageStatus",
    "config_key",
    "experiment_registry",
    "ndt_rules",
    "run_experiments",
    "run_pipeline",
    "sanitize_dataset",
    "trace_rules",
]
