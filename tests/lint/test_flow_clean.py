"""Tier-1 gate: the whole-program flow pass stays clean over ``src/``.

Three invariants, machine-checked on every run:

* zero flow findings — every ``Stage`` declaration matches what its fn
  actually reads, and every kernel/stats function is effect-free outside
  the sanctioned seams;
* the stage-contract check really covers every statically constructed
  pipeline stage (the registered ``run.py`` pipeline in particular);
* the emitted effects report conforms to ``docs/effects.schema.json``.
"""

from pathlib import Path

from repro.lint.flow import analyze_paths
from repro.lint.flow.contracts import known_stage_names
from repro.lint.flow.report import validate_effects_report

REPO = Path(__file__).resolve().parent.parent.parent


def _analyze():
    return analyze_paths([REPO / "src"], root=REPO)


class TestFlowClean:
    def test_src_has_no_flow_findings(self):
        result = _analyze()
        details = "\n".join(d.format() for d in result.diagnostics)
        assert result.diagnostics == [], f"flow findings:\n{details}"

    def test_every_registered_stage_is_covered(self):
        result = _analyze()
        sites = result.project.stage_sites()
        assert len(sites) >= 3  # generate / inject-faults / ingest at minimum
        names = known_stage_names(result.project)
        assert {"generate", "inject-faults", "ingest"} <= names
        # Every literal-fn site got its reads checked (fn resolved).
        static_sites = [s for s in sites if s.name is not None]
        resolved = [s for s in static_sites if s.fn_target]
        assert resolved, "no stage site resolved its fn statically"

    def test_gate_scanned_the_whole_tree(self):
        result = _analyze()
        assert result.files_analyzed > 100
        assert result.report["summary"]["functions"] > 500

    def test_effects_report_is_schema_valid(self):
        result = _analyze()
        assert validate_effects_report(result.report) == []

    def test_kernels_and_stats_are_parallel_safe(self):
        result = _analyze()
        analysis = result.analysis
        kernel_functions = [
            qual
            for qual, info in result.project.functions.items()
            if "repro/tables/kernels.py" in info.relpath
            or "repro/stats/" in info.relpath
        ]
        assert len(kernel_functions) > 20
        impure = [
            qual for qual in kernel_functions if analysis.effects_of(qual)
        ]
        assert impure == [], f"impure kernel/stats functions: {impure}"
