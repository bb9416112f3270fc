"""Every analysis entry point must tolerate dirty data or raise typed errors.

The contract ISSUE'd for this repo: run each of the 18 experiments over a
heavily fault-injected dataset and observe either a successful result or a
typed :class:`ReproError` — never an ``IndexError``/``KeyError``/untyped
crash, and never silent NaN propagation into results computed on the rows
that remain.
"""

import numpy as np
import pytest

from repro.analysis.common import clean_ndt, clean_traces
from repro.faults import FaultInjector, get_profile
from repro.runtime.experiments import EXPERIMENT_NAMES, experiment_registry
from repro.tables import Table
from repro.util.errors import AnalysisError, ReproError


@pytest.fixture(scope="module")
def dirty_dataset(small_dataset):
    """The session dataset dirtied with the heavy profile (worst case)."""
    dirty, summary = FaultInjector(get_profile("heavy"), seed=1234).inject_dataset(
        small_dataset
    )
    assert summary.total > 0
    return dirty


class TestCleanGuards:
    def test_clean_data_passes_through_identically(self, small_dataset):
        # The guard must be a no-op on clean tables (same object back), so
        # every number computed on clean data is unchanged by this PR.
        assert clean_ndt(small_dataset.ndt) is small_dataset.ndt
        assert clean_traces(small_dataset.traces) is small_dataset.traces

    def test_dirty_ndt_rows_dropped(self, dirty_dataset, small_dataset):
        cleaned = clean_ndt(dirty_dataset.ndt)
        assert cleaned.n_rows < dirty_dataset.ndt.n_rows
        tput = cleaned.column("tput_mbps").values.astype(np.float64)
        assert np.isfinite(tput).all() and (tput > 0).all()
        ids = cleaned.column("test_id").values
        assert len(np.unique(ids)) == len(ids)

    def test_dirty_trace_rows_dropped(self, dirty_dataset):
        cleaned = clean_traces(dirty_dataset.traces)
        n_hops = cleaned.column("n_hops").values.astype(np.int64)
        paths = cleaned.column("path").values
        assert all(
            len(p.split("|")) == c for p, c in zip(paths, n_hops)
        )

    def test_missing_columns_raise_analysis_error(self):
        bogus = Table.from_dict({"x": [1.0, 2.0]})
        with pytest.raises(AnalysisError, match="lacks columns"):
            clean_ndt(bogus)
        with pytest.raises(AnalysisError, match="lacks columns"):
            clean_traces(bogus)

    def test_all_dirty_raises_analysis_error(self, small_dataset):
        hopeless = small_dataset.ndt.with_column(
            "tput_mbps",
            np.full(small_dataset.ndt.n_rows, np.nan),
        )
        with pytest.raises(AnalysisError, match="no usable"):
            clean_ndt(hopeless)


class TestEveryExperimentToleratesDirt:
    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_experiment_runs_or_raises_typed(self, name, dirty_dataset):
        fn = experiment_registry()[name]
        try:
            section = fn(dirty_dataset)
        except ReproError:
            pass  # a typed refusal is acceptable; a crash is not
        else:
            assert isinstance(section.text, str) and section.text

    def test_results_on_dirty_equal_results_on_cleaned(self, dirty_dataset):
        # Guarded analyses must act as if the dirt had been pre-filtered.
        from repro.analysis.national import national_daily

        direct = national_daily(dirty_dataset.ndt, 2022)
        prefiltered = national_daily(clean_ndt(dirty_dataset.ndt), 2022)
        assert direct.column("tput_mbps").to_list() == pytest.approx(
            prefiltered.column("tput_mbps").to_list()
        )
        assert not any(
            np.isnan(direct.column("tput_mbps").values.astype(np.float64))
        )
