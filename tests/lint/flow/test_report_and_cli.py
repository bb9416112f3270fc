"""effects.json schema conformance and the lint CLI's flow surface."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint.engine import EXIT_LINT_FINDINGS
from repro.lint.flow.report import (
    validate_effects_report,
    write_effects_report,
)
from repro.util.errors import LintError

CLEAN_TREE = {
    "repro/a.py": """
        def pure(x):
            return x + 1
        """,
}

DRIFTED_PIPELINE = """
    from repro.runtime.pipeline import Stage

    def fit(ctx):
        return ctx["load"]

    STAGES = [Stage(name="load", fn=fit, inputs=("load",)),
              Stage(name="fit", fn=fit)]
"""


class TestEffectsReport:
    def test_fixture_report_is_schema_valid(self, flow_analyze):
        result = flow_analyze(CLEAN_TREE)
        assert validate_effects_report(result.report) == []

    def test_schema_rejects_bad_shapes(self, flow_analyze):
        result = flow_analyze(CLEAN_TREE)
        broken = json.loads(json.dumps(result.report))
        broken["functions"][0]["effects"] = ["telepathy"]
        assert validate_effects_report(broken) != []
        del broken["summary"]
        assert validate_effects_report(broken) != []

    def test_write_validates_then_commits(self, flow_analyze, tmp_path):
        result = flow_analyze(CLEAN_TREE)
        out = tmp_path / "effects.json"
        write_effects_report(result.report, out)
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["summary"]["functions"] == 1

        bad = dict(result.report)
        bad.pop("functions")
        with pytest.raises(LintError):
            write_effects_report(bad, tmp_path / "nope.json")
        assert not (tmp_path / "nope.json").exists()

    def test_explain_renders_effects_and_witness(self, flow_analyze):
        result = flow_analyze(
            {
                "repro/a.py": """
                    import time

                    def leaf():
                        return time.time()

                    def top():
                        return leaf()
                    """,
            }
        )
        text = result.explain("top")
        assert "reads-clock" in text
        assert "top -> leaf" in text
        assert "matching" in result.explain("no_such_function")


def _write_tree(tmp_path, files):
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src), encoding="utf-8")
    return tmp_path


class TestCli:
    def test_flow_findings_exit_five(self, tmp_path, capsys):
        root = _write_tree(tmp_path, {"repro/flows.py": DRIFTED_PIPELINE})
        code = main(
            [
                "lint", str(root), "--flow", "--no-baseline",
                "--no-flow-cache",
                "--effects-out", str(tmp_path / "effects.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_LINT_FINDINGS
        assert "undeclared-input" in out
        assert "flow:" in out

    def test_flow_writes_schema_valid_effects_json(self, tmp_path, capsys):
        root = _write_tree(
            tmp_path, {"repro/a.py": "def f(x):\n    return x\n"}
        )
        out_path = tmp_path / "out" / "effects.json"
        code = main(
            [
                "lint", str(root), "--flow", "--no-baseline",
                "--no-flow-cache", "--effects-out", str(out_path),
            ]
        )
        assert code == 0
        data = json.loads(out_path.read_text(encoding="utf-8"))
        assert validate_effects_report(data) == []

    def test_flow_writes_no_report_unless_asked(
        self, tmp_path, capsys, monkeypatch
    ):
        root = _write_tree(
            tmp_path, {"repro/a.py": "def f(x):\n    return x\n"}
        )
        monkeypatch.chdir(tmp_path)
        code = main(
            ["lint", str(root), "--flow", "--no-baseline", "--no-flow-cache"]
        )
        assert code == 0
        assert not (tmp_path / "results").exists()

    def test_flow_summary_in_json_format(self, tmp_path, capsys):
        root = _write_tree(
            tmp_path, {"repro/a.py": "def f(x):\n    return x\n"}
        )
        main(
            [
                "lint", str(root), "--flow", "--no-baseline",
                "--no-flow-cache", "--format", "json",
                "--effects-out", str(tmp_path / "effects.json"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["flow"]["functions"] == 1
        assert payload["flow"]["with_effects"] == 0

    def test_effects_subcommand(self, tmp_path, capsys, monkeypatch):
        root = _write_tree(
            tmp_path,
            {
                "repro/a.py": """
                    import random

                    def noisy():
                        return random.random()
                    """,
            },
        )
        monkeypatch.chdir(root)
        code = main(["lint", "effects", "noisy", "repro", "--no-flow-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rng" in out
        assert main(
            ["lint", "effects", "ghost", "repro", "--no-flow-cache"]
        ) == 1

    def test_effects_subcommand_needs_a_function(self, capsys):
        assert main(["lint", "effects"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_jobs_flag_matches_serial_output(self, tmp_path, capsys):
        files = {
            "repro/a.py": "import pandas\n",
            "repro/b.py": "def f(rows=[]):\n    return rows\n",
            "repro/c.py": "def g():\n    return 1\n",
        }
        root = _write_tree(tmp_path, files)
        code_serial = main(["lint", str(root), "--no-baseline"])
        out_serial = capsys.readouterr().out
        code_par = main(["lint", str(root), "--no-baseline", "--jobs", "2"])
        out_par = capsys.readouterr().out
        assert code_serial == code_par == EXIT_LINT_FINDINGS
        assert out_serial == out_par
