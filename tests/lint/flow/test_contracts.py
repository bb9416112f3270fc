"""Stage-contract verification against fixture pipelines."""

from repro.lint.flow.contracts import check_contracts
from repro.lint.flow.effects import infer_effects


def _rules(findings):
    return [(d.rule, d.path) for d in findings]


class TestUndeclaredInput:
    def test_hard_read_without_declaration(self, project_of):
        project = project_of(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def fit(ctx):
                    return ctx["load"], ctx["clean"]

                STAGES = [Stage(name="load", fn=fit),
                          Stage(name="clean", fn=fit),
                          Stage(name="fit", fn=fit, inputs=("load",))]
                """,
            }
        )
        findings = check_contracts(project)
        undeclared = [d for d in findings if d.rule == "undeclared-input"]
        # fit declares only "load"; the two no-input sites also read both.
        assert undeclared, findings
        assert any("'clean'" in d.message for d in undeclared)

    def test_runner_internal_key_gets_specific_message(self, project_of):
        project = project_of(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def peek(ctx):
                    return ctx["__report__"]

                SITE = Stage(name="peek", fn=peek, inputs=())
                """,
            }
        )
        (finding,) = [
            d for d in check_contracts(project)
            if d.rule == "undeclared-input"
        ]
        assert "runner-internal" in finding.message

    def test_conditional_arm_missing_a_hard_read(self, project_of):
        # The run.py regression this pass was built to catch: an eager
        # ctx[...] read declared in only one arm of a conditional inputs=.
        project = project_of(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def ingest(ctx):
                    return ctx.get("inject", ctx["generate"])

                def build(injecting):
                    return [
                        Stage(name="generate", fn=ingest, inputs=("generate",)),
                        Stage(name="inject", fn=ingest,
                              inputs=("generate", "inject")),
                        Stage(
                            name="ingest",
                            fn=ingest,
                            inputs=("inject",) if injecting else ("generate",),
                        ),
                    ]
                """,
            }
        )
        arm_findings = [
            d for d in check_contracts(project)
            if d.rule == "undeclared-input" and "conditional arm" in d.message
        ]
        assert len(arm_findings) == 1
        assert "context['generate']" in arm_findings[0].message

    def test_union_covering_both_arms_is_clean(self, project_of):
        project = project_of(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def ingest(ctx):
                    return ctx.get("inject", ctx["generate"])

                def build(injecting):
                    return [
                        Stage(name="generate", fn=ingest, inputs=("generate",)),
                        Stage(name="inject", fn=ingest,
                              inputs=("generate", "inject")),
                        Stage(
                            name="ingest",
                            fn=ingest,
                            inputs=("inject", "generate") if injecting
                            else ("generate",),
                        ),
                    ]
                """,
            }
        )
        assert [
            d for d in check_contracts(project)
            if d.rule == "undeclared-input"
            and "context['generate']" in d.message
        ] == []


class TestUnusedDeclaredInput:
    def test_spurious_edge_is_warned(self, project_of):
        project = project_of(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def fit(ctx):
                    return ctx["load"]

                STAGES = [Stage(name="load", fn=fit, inputs=("load",)),
                          Stage(name="fit", fn=fit, inputs=("load", "spare")),
                          Stage(name="spare", fn=fit, inputs=("load",))]
                """,
            }
        )
        unused = [
            d for d in check_contracts(project)
            if d.rule == "unused-declared-input"
        ]
        assert len(unused) == 1
        assert "'spare'" in unused[0].message


class TestUnknownStageKey:
    def test_typo_in_declared_input(self, project_of):
        project = project_of(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def fit(ctx):
                    return ctx["laod"]

                STAGES = [Stage(name="load", fn=fit, inputs=("load",)),
                          Stage(name="fit", fn=fit, inputs=("laod",))]
                """,
            }
        )
        unknown = [
            d for d in check_contracts(project)
            if d.rule == "unknown-stage-key"
        ]
        assert any("'laod'" in d.message for d in unknown)

    def test_dynamic_stage_names_soften_the_check(self, project_of):
        # One dynamically named Stage anywhere reopens the name universe:
        # reads matching nothing are no longer provable typos.
        project = project_of(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def fit(ctx):
                    return ctx["experiment-x"]

                def build(name, fn):
                    return Stage(name=name, fn=fn)

                SITE = Stage(name="fit", fn=fit, inputs=("experiment-x",))
                """,
            }
        )
        # "experiment-x" may be a dynamically constructed stage: no finding
        # for the read, but the declared key still matches nothing... which
        # is also allowed, because the universe is open.
        assert [
            d for d in check_contracts(project)
            if d.rule == "unknown-stage-key"
        ] == []


class TestDynamicSites:
    def test_runtime_fn_checked_only_for_unknown_keys(self, project_of):
        project = project_of(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def make(registry):
                    return Stage(name="exp", fn=registry["exp"],
                                 inputs=("laod",))

                def loader(ctx):
                    return 1

                SITE = Stage(name="load", fn=loader, inputs=())
                """,
            }
        )
        findings = check_contracts(project)
        assert ("undeclared-input", "repro/flows.py") not in _rules(findings)
        assert any(d.rule == "unknown-stage-key" for d in findings)


class TestRealTreeGate:
    def test_inline_suppression_respected_via_analyzer(self, flow_analyze):
        result = flow_analyze(
            {
                "repro/flows.py": """
                from repro.runtime.pipeline import Stage

                def fit(ctx):
                    return ctx["load"]

                STAGES = [
                    Stage(name="load", fn=fit, inputs=("load",)),
                    Stage(name="fit", fn=fit),  # repro-lint: disable=undeclared-input
                ]
                """,
            }
        )
        assert [d for d in result.diagnostics
                if d.rule == "undeclared-input"] == []

    def test_effect_summary_rides_along(self, flow_analyze):
        result = flow_analyze(
            {
                "repro/a.py": """
                    def pure(x):
                        return x + 1
                    """,
            }
        )
        assert result.report["summary"]["functions"] == 1
        assert result.report["summary"]["with_effects"] == 0
        analysis = infer_effects(result.project)
        assert analysis.effects_of("repro.a.pure") == frozenset()
