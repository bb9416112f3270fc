"""The benchmark registry: history, comparison semantics, CLI exit codes."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    DEFAULT_MIN_SECONDS,
    EXIT_PERF_REGRESSION,
    SNAPSHOT_KINDS,
    BenchRegistry,
    BenchRowError,
    append_history,
    baseline_path,
    compare,
    load_history,
    load_rows,
    load_snapshots,
    render_comparison,
    session_registry,
    write_bench,
    write_snapshot,
)
from repro.util.errors import ReproError

#: Files that are not a set of registry rows: ``load_rows`` refuses each.
MALFORMED = {
    "array": "[1, 2]",
    "number": "42",
    "string_seconds": '{"a": {"seconds": "x"}}',
    "no_seconds": '{"benchmarks": {"a": {"rows": 3}}}',
    "negative": '{"a": -1.0}',
    "nan": '{"a": {"seconds": NaN}}',
    "rows_not_an_object": '{"benchmarks": [1.0]}',
}
#: The inputs that crashed ``repro bench compare``/``record`` untyped.
CLI_MALFORMED = ("array", "number", "string_seconds")


class TestRegistry:
    def test_record_and_sorted_export(self):
        reg = BenchRegistry()
        reg.record("z.late", 2.0, rows=10)
        reg.record("a.early", 1.0)
        out = reg.as_benchmarks()
        assert list(out) == ["a.early", "z.late"]
        assert out["z.late"] == {"seconds": 2.0, "rows": 10}

    def test_last_write_wins(self):
        reg = BenchRegistry()
        reg.record("x", 5.0)
        reg.record("x", 1.0)
        assert reg.as_benchmarks()["x"]["seconds"] == 1.0

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="non-empty"):
            BenchRegistry().record("", 1.0)
        with pytest.raises(ValueError, match="negative"):
            BenchRegistry().record("x", -1.0)
        for bad in ("1.5", True, None, float("nan"), float("inf")):
            with pytest.raises(BenchRowError):
                BenchRegistry().record("x", bad)


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history({"a": {"seconds": 1.0}}, "abc1234", "2026-08-06", path)
        append_history({"a": {"seconds": 1.1}}, "def5678", "2026-08-07", path)
        records = load_history(path)
        assert [r["sha"] for r in records] == ["abc1234", "def5678"]
        assert records[-1]["benchmarks"]["a"]["seconds"] == 1.1
        # append-only: two runs, two lines
        assert len(path.read_text().splitlines()) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_malformed_line_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "BENCH_history.jsonl"
        append_history({"a": 1.0}, "s", "t", path)
        with open(path, "a") as fh:
            fh.write("{truncated\n")
        with caplog.at_level("WARNING", logger="repro.obs.bench"):
            assert len(load_history(path)) == 1
        assert "malformed" in caplog.text
        assert "torn tail" in caplog.text

    def test_torn_tail_skipped_but_earlier_records_survive(self, tmp_path, caplog):
        path = tmp_path / "BENCH_history.jsonl"
        append_history({"a": 1.0}, "s1", "t1", path)
        append_history({"b": 2.0}, "s2", "t2", path)
        # Simulate a crash mid-append: chop the last record in half.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        with caplog.at_level("WARNING", logger="repro.obs.bench"):
            records = load_history(path)
        assert [r["sha"] for r in records] == ["s1"]
        assert "torn tail" in caplog.text

    def test_record_is_compact_single_line_json(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        rec = append_history({"a": {"seconds": 1.0}}, "s", "t", path)
        line = path.read_text().splitlines()[0]
        assert json.loads(line) == rec
        assert ": " not in line and "\n" not in line


class TestCompare:
    def test_regression_beyond_threshold_fails(self):
        result = compare({"a": 1.3}, {"a": 1.0}, threshold=0.2)
        assert not result.ok
        assert result.exit_code == EXIT_PERF_REGRESSION
        assert result.regressions[0].ratio == pytest.approx(1.3)

    def test_within_threshold_passes(self):
        result = compare({"a": 1.15}, {"a": 1.0}, threshold=0.2)
        assert result.ok and result.compared == 1

    def test_improvement_never_fails(self):
        result = compare({"a": 0.5}, {"a": 1.0}, threshold=0.2)
        assert result.ok
        assert [i.name for i in result.improvements] == ["a"]

    def test_noise_floor_skips_fast_benchmarks(self):
        # a 3ms kernel 10x slower is still under the floor -> never gates
        result = compare({"a": 0.003}, {"a": 0.0003})
        assert result.ok
        assert result.skipped_noise == ["a"]
        assert result.compared == 0
        assert DEFAULT_MIN_SECONDS == 0.01

    def test_added_and_missing_are_reported_not_gated(self):
        result = compare({"new": 5.0}, {"gone": 5.0})
        assert result.ok
        assert result.added == ["new"] and result.missing == ["gone"]

    def test_accepts_seconds_or_row_dicts(self):
        result = compare(
            {"a": {"seconds": 2.0, "rows": 10}}, {"a": 1.0}, threshold=0.2
        )
        assert len(result.regressions) == 1

    def test_render_mentions_everything(self):
        result = compare(
            {"slow": 2.0, "fast": 0.4, "tiny": 0.001, "new": 1.0},
            {"slow": 1.0, "fast": 1.0, "tiny": 0.001, "gone": 1.0},
        )
        text = render_comparison(result)
        assert "REGRESSION slow" in text
        assert "improved   fast" in text
        assert "tiny" in text and "new" in text and "gone" in text
        assert text.endswith("FAIL: performance regressions")


class TestLegacyUnification:
    def test_missing_snapshots_are_fine(self, tmp_path):
        assert load_snapshots(tmp_path) == {}

    def test_profile_baseline_path(self, tmp_path):
        assert baseline_path("profile", tmp_path).name == "BENCH_profile.json"
        with pytest.raises(ValueError, match="engine|obs|storage|profile"):
            baseline_path("nope", tmp_path)

    def test_write_snapshot_format(self, tmp_path):
        path = write_snapshot(tmp_path / "BENCH_x.json", {"benchmarks": {}})
        text = open(path).read()
        assert text.endswith("\n")
        assert json.loads(text) == {"benchmarks": {}}


class TestOneRowShape:
    @pytest.mark.parametrize("kind", SNAPSHOT_KINDS)
    def test_checked_in_snapshot_holds_only_registry_rows(self, kind):
        path = baseline_path(kind)
        data = json.loads(path.read_text(encoding="utf-8"))
        rows = data["benchmarks"]
        assert rows
        for name, row in rows.items():
            assert isinstance(row, dict), name
            seconds = row.get("seconds")
            assert isinstance(seconds, float) and seconds >= 0, name
        assert load_rows(path) == rows

    def test_written_rows_load_back_and_reach_the_session_registry(
        self, tmp_path
    ):
        rows = {
            "engine.round_trip_a": {"seconds": 0.5, "rows": 10, "before_s": 2.0},
            "engine.round_trip_b": {"seconds": 0.25, "floor_ms": 0.2},
        }
        path = write_bench("engine", rows, root=tmp_path, budget=0.05)
        data = json.loads(open(path).read())
        assert list(data) == ["machine", "budget", "benchmarks"]
        assert set(data["machine"]) == {"python", "numpy", "platform"}
        assert load_snapshots(tmp_path) == rows
        session = session_registry().as_benchmarks()
        assert {n: session[n] for n in rows} == rows

    def test_a_bad_row_writes_and_records_nothing(self, tmp_path):
        rows = {
            "live.good_row": {"seconds": 1.0},
            "live.bad_row": {"seconds": "x"},
        }
        with pytest.raises(BenchRowError, match="live.bad_row"):
            write_bench("live", rows, root=tmp_path)
        assert not baseline_path("live", tmp_path).exists()
        assert "live.good_row" not in session_registry().as_benchmarks()

    def test_number_rows_become_registry_rows(self, tmp_path):
        path = tmp_path / "current.json"
        path.write_text('{"a": 1.5, "b": {"seconds": 2, "rows": 3}}')
        assert load_rows(path) == {
            "a": {"seconds": 1.5}, "b": {"seconds": 2.0, "rows": 3},
        }

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_files_raise_a_typed_error_naming_them(
        self, tmp_path, text
    ):
        path = tmp_path / "current.json"
        path.write_text(text)
        with pytest.raises(ReproError, match="current.json"):
            load_rows(path)


class TestCli:
    def _current(self, tmp_path, seconds):
        path = tmp_path / "current.json"
        path.write_text(json.dumps({"benchmarks": {"engine.op": {"seconds": seconds}}}))
        return str(path)

    def _history(self, tmp_path, seconds=1.0):
        path = tmp_path / "BENCH_history.jsonl"
        append_history({"engine.op": {"seconds": seconds}}, "abc", "2026-08-06", path)
        return str(path)

    def test_compare_pass_exit_zero(self, tmp_path, capsys):
        rc = main([
            "bench", "compare",
            "--current", self._current(tmp_path, 1.05),
            "--history", self._history(tmp_path),
        ])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_slowdown_exits_six(self, tmp_path, capsys):
        rc = main([
            "bench", "compare",
            "--current", self._current(tmp_path, 1.25),
            "--history", self._history(tmp_path),
            "--threshold", "0.2",
        ])
        assert rc == EXIT_PERF_REGRESSION
        assert "REGRESSION engine.op" in capsys.readouterr().out

    def test_compare_without_history_warns_and_passes(self, tmp_path, capsys):
        rc = main([
            "bench", "compare",
            "--current", self._current(tmp_path, 1.0),
            "--history", str(tmp_path / "absent.jsonl"),
        ])
        assert rc == 0
        assert "no baseline recorded yet" in capsys.readouterr().err

    def test_record_appends_with_explicit_key(self, tmp_path, capsys):
        history = tmp_path / "BENCH_history.jsonl"
        rc = main([
            "bench", "record",
            "--input", self._current(tmp_path, 1.0),
            "--history", str(history),
            "--sha", "abc1234", "--ts", "2026-08-06",
        ])
        assert rc == 0
        records = load_history(history)
        assert records[-1]["sha"] == "abc1234"
        assert records[-1]["timestamp"] == "2026-08-06"

    @pytest.mark.parametrize("case", CLI_MALFORMED)
    def test_compare_refuses_a_malformed_current(self, tmp_path, capsys, case):
        current = tmp_path / "current.json"
        current.write_text(MALFORMED[case])
        rc = main([
            "bench", "compare",
            "--current", str(current),
            "--history", self._history(tmp_path),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("case", CLI_MALFORMED)
    def test_record_refuses_a_malformed_input_and_appends_nothing(
        self, tmp_path, capsys, case
    ):
        history = self._history(tmp_path)
        before = open(history).read()
        current = tmp_path / "current.json"
        current.write_text(MALFORMED[case])
        rc = main([
            "bench", "record", "--input", str(current), "--history", history,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert open(history).read() == before

    def test_run_times_the_micro_suite(self, capsys):
        rc = main(["bench", "run", "--rows", "2000", "--repeat", "1", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert "micro.groupby_mean" in data["benchmarks"]
        assert data["benchmarks"]["micro.sort_by"]["seconds"] >= 0
