"""The sanctioned network seam: forbidden-import carve-out + flow rule.

Two layers enforce the same boundary (``repro/obs/live/`` is the one
place allowed to touch sockets/HTTP), both reading the seam table and
its one list of network modules in ``repro.lint.seams``:

* the per-file ``forbidden-import`` rule allows the network modules
  inside the seam (and benchmarks) only — pandas stays banned
  everywhere;
* the whole-program ``unsanctioned-network`` rule flags any function
  with a *direct* network effect whose file is outside the seam.
"""

import ast

from repro.lint.context import FileContext, LintConfig
from repro.lint.flow.analyzer import analyze_paths
from repro.lint.rules.imports import ForbiddenImportRule
from repro.lint.seams import NETWORK_MODULES, SEAMS, allowed, seam_of


def import_findings(source, relpath):
    ctx = FileContext(
        path=None, relpath=relpath, source=source,
        tree=ast.parse(source), config=LintConfig(),
    )
    return list(ForbiddenImportRule().check(ctx))


class TestForbiddenImportCarveOut:
    def test_network_import_outside_seam_is_a_finding(self):
        diags = import_findings(
            "import urllib.request\n", "src/repro/analysis/national.py"
        )
        assert len(diags) == 1
        assert "urllib" in diags[0].message

    def test_network_import_inside_seam_is_allowed(self):
        source = "import socket\nfrom http.server import ThreadingHTTPServer\n"
        assert import_findings(source, "src/repro/obs/live/service.py") == []

    def test_benchmarks_may_drive_the_service(self):
        source = "import urllib.request\n"
        assert import_findings(source, "benchmarks/test_live_service.py") == []

    def test_pandas_stays_forbidden_even_inside_the_seam(self):
        diags = import_findings(
            "import pandas\n", "src/repro/obs/live/service.py"
        )
        assert len(diags) == 1
        assert "pandas" in diags[0].message


class TestFlowNetworkRule:
    def test_obs_live_is_a_registered_seam_before_obs(self):
        keys = [seam.name for seam in SEAMS]
        assert keys.index("obs.live") < keys.index("obs")
        assert seam_of("src/repro/obs/live/service.py") == "obs.live"
        assert seam_of("src/repro/obs/metrics.py") == "obs"
        # the live service still reads clocks through the enclosing obs row
        assert allowed("src/repro/obs/live/service.py", "reads-clock")
        assert not allowed("src/repro/obs/metrics.py", "network")

    def _analyze(self, tmp_path, files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return analyze_paths([tmp_path], root=tmp_path)

    def test_direct_network_effect_outside_seam_is_flagged(self, tmp_path):
        # One offender per module of the network list, the same list the
        # forbidden-import rule bans, so the two layers cannot drift.
        files = {
            f"repro/analysis/fetch_{module}.py": (
                f"import {module}\n"
                f"def pull(url):\n"
                f"    return {module}.client.open(url)\n"
            )
            for module in sorted(NETWORK_MODULES)
        }
        result = self._analyze(tmp_path, files)
        findings = [
            d for d in result.diagnostics if d.rule == "unsanctioned-network"
        ]
        assert sorted(d.path for d in findings) == sorted(files)
        assert all("repro/obs/live" in d.message for d in findings)

    def test_seam_code_and_its_callers_are_clean(self, tmp_path):
        result = self._analyze(tmp_path, {
            "repro/obs/live/service.py": (
                "import socket\n"
                "def serve():\n"
                "    return socket.socket()\n"
            ),
            "repro/analysis/report.py": (
                "from repro.obs.live.service import serve\n"
                "def render():\n"
                "    return serve()\n"
            ),
        })
        assert [
            d for d in result.diagnostics if d.rule == "unsanctioned-network"
        ] == []
