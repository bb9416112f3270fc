"""The schema-aware column rule: unknown names flagged, declared ones pass."""

RULE = ["schema-columns"]


def _messages(diags):
    return [d.message for d in diags]


class TestFlagged:
    def test_col_with_typo(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            'mask = col("min_rtt ")\n', RULE, config=small_schema_config
        )
        assert len(diags) == 1
        assert "unknown column 'min_rtt '" in diags[0].message
        assert diags[0].rule == "schema-columns"

    def test_group_by_unknown(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            't.group_by("dy")\n', RULE, config=small_schema_config
        )
        assert len(diags) == 1

    def test_select_list_mixed(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            't.select(["min_rtt_ms", "bogus"])\n', RULE, config=small_schema_config
        )
        assert len(diags) == 1
        assert "'bogus'" in diags[0].message

    def test_aggregate_unknown_source_and_output(
        self, lint_snippet, small_schema_config
    ):
        diags = lint_snippet(
            't.group_by("day").aggregate({"undeclared": ("mistyped", "mean")})\n',
            RULE,
            config=small_schema_config,
        )
        assert len(diags) == 2
        assert any("aggregate output 'undeclared'" in m for m in _messages(diags))
        assert any("unknown column 'mistyped'" in m for m in _messages(diags))

    def test_aggregate_unknown_aggregator(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            't.group_by("day").aggregate({"tests": ("min_rtt_ms", "average")})\n',
            RULE,
            config=small_schema_config,
        )
        assert len(diags) == 1
        assert "unknown aggregator 'average'" in diags[0].message

    def test_with_column_undeclared(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            't.with_column("made_up", values)\n', RULE, config=small_schema_config
        )
        assert len(diags) == 1

    def test_rename_unknown_and_undeclared(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            't.rename({"nope": "also_nope"})\n', RULE, config=small_schema_config
        )
        assert len(diags) == 2

    def test_col_inside_lazy_chain(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            't.lazy().filter(col("tput_mbs") > 1).collect()\n',
            RULE,
            config=small_schema_config,
        )
        assert len(diags) == 1
        assert "unknown column 'tput_mbs'" in diags[0].message

    def test_col_via_attribute(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            'mask = expr.col("dayy") > 3\n', RULE, config=small_schema_config
        )
        assert len(diags) == 1

    def test_expr_leaf_constructors(self, lint_snippet, small_schema_config):
        source = """\
            a = Comparison("min_rt", ">", 10)
            b = IsIn("cty", ["Kyiv"])
            c = expr.IsNull("oblst")
        """
        diags = lint_snippet(source, RULE, config=small_schema_config)
        assert len(diags) == 3
        assert any("Comparison()" in m for m in _messages(diags))
        assert any("IsIn()" in m for m in _messages(diags))
        assert any("IsNull()" in m for m in _messages(diags))

    def test_subscript_near_miss_is_typo(self, lint_snippet, small_schema_config):
        diags = lint_snippet(
            'x = row["Min_RTT_ms "]\n', RULE, config=small_schema_config
        )
        assert len(diags) == 1
        assert "typo of declared column 'min_rtt_ms'" in diags[0].message


class TestAllowed:
    def test_declared_names_pass(self, lint_snippet, small_schema_config):
        source = """\
            mask = col("min_rtt_ms") > 10
            t.group_by(["day"]).aggregate({"tests": ("tput_mbps", "count")})
            t.select(["day", "min_rtt_ms"]).sort_by("day")
            t.with_column("tests", values)
        """
        assert lint_snippet(source, RULE, config=small_schema_config) == []

    def test_declared_expr_leaves_pass(self, lint_snippet, small_schema_config):
        source = """\
            a = Comparison("min_rtt_ms", ">", 10)
            b = IsIn("day", [1, 2])
            c = IsNull("tput_mbps")
            d = t.lazy().filter(col("day") > 3).collect()
        """
        assert lint_snippet(source, RULE, config=small_schema_config) == []

    def test_plain_dict_subscript_not_checked(
        self, lint_snippet, small_schema_config
    ):
        # Subscripts only get the near-miss check: arbitrary dict keys pass.
        source = 'meta = {"label": 1}\nx = meta["label"]\n'
        assert lint_snippet(source, RULE, config=small_schema_config) == []

    def test_exact_subscript_passes(self, lint_snippet, small_schema_config):
        assert (
            lint_snippet('x = row["min_rtt_ms"]\n', RULE, config=small_schema_config)
            == []
        )

    def test_non_literal_arguments_ignored(self, lint_snippet, small_schema_config):
        source = "name = compute()\nt.group_by(name)\nt.select(names)\n"
        assert lint_snippet(source, RULE, config=small_schema_config) == []

    def test_real_repo_config_accepts_canonical_columns(self, lint_snippet):
        # Default config pulls known_columns from tables/schema.py.
        source = 'mask = col("loss_rate") > 0.01\nt.group_by("period")\n'
        assert lint_snippet(source, RULE) == []

    def test_schema_exempt_files_skipped(self, lint_snippet, small_schema_config):
        # the bench micro suite's synthetic tables are exempt
        source = 't.group_by("k").aggregate({"m": ("v", "mean")})\n'
        assert (
            lint_snippet(
                source,
                RULE,
                relpath="repro/obs/bench.py",
                config=small_schema_config,
            )
            == []
        )
        # the same snippet anywhere else still flags
        assert (
            lint_snippet(source, RULE, config=small_schema_config) != []
        )
