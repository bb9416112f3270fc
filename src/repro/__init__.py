"""Reproduction of *The Ukrainian Internet Under Attack: an NDT Perspective*
(IMC '22).

The package simulates the M-Lab NDT measurement pipeline over a synthetic
Ukrainian Internet under the 2022 invasion, then recomputes every table and
figure of the paper from the generated data.

Quickstart
----------
>>> from repro import DatasetGenerator, GeneratorConfig, full_report
>>> dataset = DatasetGenerator(GeneratorConfig(scale=0.2)).generate()
>>> print(full_report(dataset))  # doctest: +SKIP

``full_report`` runs the 18 experiments and prints what ``repro report``
prints, without the run report.

Layers (bottom-up): :mod:`repro.util`, :mod:`repro.tables`,
:mod:`repro.stats`, :mod:`repro.netbase`, :mod:`repro.geo`,
:mod:`repro.conflict`, :mod:`repro.topology`, :mod:`repro.mlab`,
:mod:`repro.ndt`, :mod:`repro.traceroute`, :mod:`repro.synth`,
:mod:`repro.faults`, :mod:`repro.analysis`, :mod:`repro.runtime`,
:mod:`repro.viz`.
"""

from repro.faults import get_profile
from repro.runtime.run import full_report, run_pipeline
from repro.synth.generator import Dataset, DatasetGenerator, GeneratorConfig, study_periods
from repro.synth.scenario import Scenario, scenario_config
from repro.topology.builder import Topology, build_default_topology

__version__ = "1.0.0"

__all__ = [
    "Dataset",
    "DatasetGenerator",
    "GeneratorConfig",
    "Scenario",
    "Topology",
    "__version__",
    "build_default_topology",
    "full_report",
    "get_profile",
    "run_pipeline",
    "scenario_config",
    "study_periods",
]
