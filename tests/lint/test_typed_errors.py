"""The typed-errors rule: generic builtins flagged, documented conventions pass."""

RULE = ["typed-errors"]


class TestFlagged:
    def test_bare_except(self, lint_snippet):
        source = """\
            try:
                work()
            except:
                pass
        """
        diags = lint_snippet(source, RULE)
        assert len(diags) == 1
        assert "bare 'except:'" in diags[0].message

    def test_raise_runtime_error(self, lint_snippet):
        diags = lint_snippet('raise RuntimeError("boom")\n', RULE)
        assert len(diags) == 1
        assert "RuntimeError" in diags[0].message

    def test_raise_key_error_without_call(self, lint_snippet):
        assert len(lint_snippet("raise KeyError\n", RULE)) == 1

    def test_raise_arithmetic_error(self, lint_snippet):
        assert len(lint_snippet('raise ArithmeticError("diverged")\n', RULE)) == 1

    def test_value_error_in_strict_package(self, lint_snippet):
        diags = lint_snippet(
            'raise ValueError("bad")\n', RULE, relpath="repro/analysis/foo.py"
        )
        assert len(diags) == 1
        assert "strict package" in diags[0].message

    def test_except_exception_in_strict_package(self, lint_snippet):
        source = """\
            try:
                work()
            except Exception as exc:
                parts.append(f"(skipped: {exc})")
        """
        diags = lint_snippet(source, RULE, relpath="repro/analysis/foo.py")
        assert len(diags) == 1
        assert "'except Exception'" in diags[0].message
        assert diags[0].line == 3

    def test_except_base_exception_in_tuple(self, lint_snippet):
        source = """\
            try:
                work()
            except (KeyError, BaseException):
                pass
        """
        diags = lint_snippet(source, RULE, relpath="repro/runtime/foo.py")
        assert len(diags) == 1
        assert "'except BaseException'" in diags[0].message

    def test_index_error_in_runtime_package(self, lint_snippet):
        assert (
            len(
                lint_snippet(
                    "raise IndexError\n", RULE, relpath="repro/runtime/foo.py"
                )
            )
            == 1
        )


class TestAllowed:
    def test_value_error_for_argument_validation(self, lint_snippet):
        # The documented util/errors.py convention: argument validation in
        # non-strict packages may raise ValueError/TypeError.
        source = """\
            def f(n):
                if n < 0:
                    raise ValueError(f"n must be >= 0, got {n}")
        """
        assert lint_snippet(source, RULE, relpath="repro/tables/foo.py") == []

    def test_typed_hierarchy_raise(self, lint_snippet):
        source = 'raise DataError("malformed")\n'
        assert lint_snippet(source, RULE, relpath="repro/analysis/foo.py") == []

    def test_except_exception_outside_strict_packages(self, lint_snippet):
        source = """\
            try:
                work()
            except Exception:
                pass
        """
        assert lint_snippet(source, RULE, relpath="repro/obs/foo.py") == []

    def test_typed_catch_in_strict_package(self, lint_snippet):
        source = """\
            try:
                work()
            except (AnalysisError, ValueError) as exc:
                parts.append(f"(skipped: {exc})")
        """
        assert lint_snippet(source, RULE, relpath="repro/analysis/foo.py") == []

    def test_inline_reason_suppresses_catch_all(self, lint_snippet):
        source = """\
            try:
                value = stage.fn(context)
            except Exception as exc:  # repro-lint: disable=typed-errors (recorded per stage)
                last_exc = exc
        """
        assert lint_snippet(source, RULE, relpath="repro/runtime/foo.py") == []

    def test_specific_except_and_reraise(self, lint_snippet):
        source = """\
            try:
                work()
            except ValueError:
                raise
        """
        assert lint_snippet(source, RULE) == []
