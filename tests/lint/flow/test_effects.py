"""Effect inference: propagation, seams, witnesses, purity gate, monotonicity."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.flow.callgraph import Project
from repro.lint.flow.effects import (
    EFFECTS,
    check_kernel_purity,
    infer_effects,
)
from repro.lint.flow.summarize import (
    CallRef,
    DirectEffect,
    FunctionInfo,
    ModuleSummary,
)


class TestPropagation:
    def test_effects_flow_up_the_call_chain(self, project_of):
        project = project_of(
            {
                "repro/a.py": """
                    import time

                    def leaf():
                        return time.time()

                    def mid():
                        return leaf()

                    def top():
                        return mid()
                    """,
            }
        )
        analysis = infer_effects(project)
        for qual in ("repro.a.leaf", "repro.a.mid", "repro.a.top"):
            assert analysis.effects_of(qual) == {"reads-clock"}, qual

    def test_cycles_reach_fixpoint(self, project_of):
        project = project_of(
            {
                "repro/a.py": """
                    import random

                    def ping(n):
                        return pong(n - 1)

                    def pong(n):
                        random.random()
                        return ping(n - 1)
                    """,
            }
        )
        analysis = infer_effects(project)
        assert analysis.effects_of("repro.a.ping") == {"rng"}
        assert analysis.effects_of("repro.a.pong") == {"rng"}

    def test_pure_functions_stay_pure(self, project_of):
        project = project_of(
            {
                "repro/a.py": """
                    def add(a, b):
                        return a + b

                    def double(a):
                        return add(a, a)
                    """,
            }
        )
        analysis = infer_effects(project)
        assert analysis.effects_of("repro.a.double") == frozenset()


class TestSeams:
    def test_seam_call_sanctions_instead_of_propagating(self, project_of):
        project = project_of(
            {
                "repro/util/rng.py": """
                    import numpy as np

                    def rng_for(seed):
                        return np.random.default_rng(seed)
                    """,
                "repro/tables/kernels.py": """
                    from repro.util.rng import rng_for

                    def sample(seed, n):
                        return rng_for(seed).random(n)
                    """,
            }
        )
        analysis = infer_effects(project)
        kernel = "repro.tables.kernels.sample"
        assert analysis.effects_of(kernel) == frozenset()
        assert analysis.sanctioned_of(kernel) == {"util.rng"}

    def test_sanctioned_seams_propagate_to_callers(self, project_of):
        project = project_of(
            {
                "repro/util/rng.py": """
                    def rng_for(seed):
                        return seed
                    """,
                "repro/a.py": """
                    from repro.util.rng import rng_for

                    def uses_seam(seed):
                        return rng_for(seed)

                    def indirect(seed):
                        return uses_seam(seed)
                    """,
            }
        )
        analysis = infer_effects(project)
        assert analysis.sanctioned_of("repro.a.indirect") == {"util.rng"}

    def test_profiler_seam_shadows_the_obs_seam(self):
        from repro.lint.seams import seam_of

        # Table order matters: the profiler's more specific fragment
        # must win over the enclosing repro/obs/ seam.
        assert seam_of("src/repro/obs/profile/sampler.py") == "obs.profile"
        assert seam_of("src/repro/obs/clock.py") == "obs"
        assert seam_of("src/repro/tables/table.py") is None

    def test_profiler_call_sanctions_as_obs_profile(self, project_of):
        project = project_of(
            {
                "repro/obs/profile/sampler.py": """
                    def collapse(labels):
                        return ";".join(labels)
                    """,
                "repro/a.py": """
                    from repro.obs.profile.sampler import collapse

                    def render(labels):
                        return collapse(labels)
                    """,
            }
        )
        analysis = infer_effects(project)
        assert analysis.sanctioned_of("repro.a.render") == {"obs.profile"}


class TestWitness:
    def test_witness_path_names_the_direct_source(self, project_of):
        project = project_of(
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
        analysis = infer_effects(project)
        chain = analysis.witness_path("repro.a.top", "reads-clock")
        assert [q for q, _ in chain] == ["repro.a.top", "repro.a.leaf"]
        assert chain[-1][1].effect == "reads-clock"
        assert analysis.witness_path("repro.a.top", "network") is None


class TestKernelPurity:
    def test_impure_kernel_flagged_with_witness(self, project_of):
        project = project_of(
            {
                "repro/tables/kernels.py": """
                    import time

                    def timed_kernel(x):
                        t = time.perf_counter()
                        return x, t
                    """,
            }
        )
        analysis = infer_effects(project)
        (finding,) = check_kernel_purity(analysis)
        assert finding.rule == "impure-kernel"
        assert "timed_kernel" in finding.message
        assert "reads-clock" in finding.message

    def test_effect_reached_through_helper_is_anchored_at_root(
        self, project_of
    ):
        project = project_of(
            {
                "repro/stats/boot.py": """
                    from repro.helpers import noisy

                    def resample(x):
                        return noisy(x)
                    """,
                "repro/helpers.py": """
                    import random

                    def noisy(x):
                        return x + random.random()
                    """,
            }
        )
        analysis = infer_effects(project)
        findings = check_kernel_purity(analysis)
        paths = {f.path for f in findings}
        assert "repro/stats/boot.py" in paths
        # helpers.py is outside the kernel packages: flagged only via roots.
        assert "repro/helpers.py" not in paths

    def test_clean_kernels_produce_no_findings(self, project_of):
        project = project_of(
            {
                "repro/tables/kernels.py": """
                    def segment_sum(values, bounds):
                        return [sum(values[a:b]) for a, b in bounds]
                    """,
            }
        )
        analysis = infer_effects(project)
        assert check_kernel_purity(analysis) == []


def _synthetic_project(n, edges, direct):
    """A hand-built project: ``m.f0 .. m.f{n-1}`` with explicit call edges."""
    functions = {}
    for i in range(n):
        qual = f"m.f{i}"
        functions[qual] = FunctionInfo(
            qualname=qual,
            module="m",
            relpath="repro/m.py",
            line=i + 1,
            name=f"f{i}",
            params=(),
            calls=tuple(
                CallRef(raw=f"f{j}", target=f"m.f{j}", kind="project", line=1)
                for (a, j) in sorted(edges)
                if a == i
            ),
            direct_effects=tuple(
                DirectEffect(e, 1, "synthetic") for e in sorted(direct.get(i, ()))
            ),
        )
    summary = ModuleSummary(
        relpath="repro/m.py", module="m", source_hash="", functions=functions
    )
    return Project([summary])


@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.frozensets(st.tuples(nodes, nodes), min_size=0, max_size=10)
    )
    direct = {
        i: draw(
            st.frozensets(st.sampled_from(EFFECTS), min_size=0, max_size=2)
        )
        for i in range(n)
    }
    extra = draw(st.tuples(nodes, nodes).filter(lambda e: e not in edges))
    return n, edges, direct, extra


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(_graphs())
    def test_adding_a_call_edge_never_shrinks_effects(self, graph):
        n, edges, direct, extra = graph
        before = infer_effects(_synthetic_project(n, edges, direct))
        after = infer_effects(
            _synthetic_project(n, edges | {extra}, direct)
        )
        for i in range(n):
            qual = f"m.f{i}"
            assert before.effects_of(qual) <= after.effects_of(qual), (
                f"adding edge {extra} shrank effects of {qual}"
            )

    @settings(max_examples=30, deadline=None)
    @given(_graphs())
    def test_effects_contain_direct_effects(self, graph):
        n, edges, direct, _ = graph
        analysis = infer_effects(_synthetic_project(n, edges, direct))
        for i in range(n):
            assert set(direct.get(i, ())) <= set(analysis.effects_of(f"m.f{i}"))
