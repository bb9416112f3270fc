"""Tests for the bulk-transfer metric model."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ndt import BulkTransferModel, MetricParams, PathConditions
from repro.ndt.tcpmodel import clamp_loss
from repro.stats.distributions import lognormal_params_from_moments


def kyiv_prewar():
    # Table 1 Kyiv prewar: RTT 11.34 ms, tput 64 Mbps, loss 1.37%.
    return MetricParams(
        tput_mean_mbps=64.0,
        tput_std_mbps=40.0,
        rtt_mean_ms=11.34,
        rtt_std_ms=8.0,
        loss_mean=0.0137,
    )


class TestMeasure:
    def test_moments_match_calibration(self):
        model = BulkTransferModel(np.random.default_rng(0))
        draws = [model.measure(kyiv_prewar()) for _ in range(20_000)]
        tputs = np.array([d[0] for d in draws])
        rtts = np.array([d[1] for d in draws])
        losses = np.array([d[2] for d in draws])
        assert tputs.mean() == pytest.approx(64.0, rel=0.03)
        assert rtts.mean() == pytest.approx(11.34, rel=0.03)
        assert losses.mean() == pytest.approx(0.0137, rel=0.08)

    def test_metrics_in_valid_ranges(self):
        model = BulkTransferModel(np.random.default_rng(1))
        for _ in range(2000):
            tput, rtt, loss = model.measure(kyiv_prewar())
            assert tput > 0
            assert rtt >= 0.1
            assert 0.0 <= loss <= 1.0

    def test_right_skewed_like_paper_distributions(self):
        # Paper Figs 7-8: throughput and loss are right-skewed.
        model = BulkTransferModel(np.random.default_rng(2))
        draws = [model.measure(kyiv_prewar()) for _ in range(10_000)]
        tputs = np.array([d[0] for d in draws])
        losses = np.array([d[2] for d in draws])
        assert np.median(tputs) < tputs.mean()
        assert np.median(losses) < losses.mean()

    def test_extra_rtt_shifts_min_rtt(self):
        model = BulkTransferModel(np.random.default_rng(3))
        plain = np.mean([model.measure(kyiv_prewar())[1] for _ in range(4000)])
        model2 = BulkTransferModel(np.random.default_rng(3))
        detour = PathConditions(extra_rtt_ms=25.0)
        shifted = np.mean(
            [model2.measure(kyiv_prewar(), detour)[1] for _ in range(4000)]
        )
        assert shifted == pytest.approx(plain + 25.0, rel=0.02)

    def test_extra_loss_adds_and_damps_tput(self):
        model = BulkTransferModel(np.random.default_rng(4))
        cond = PathConditions(extra_loss=0.04)
        draws = [model.measure(kyiv_prewar(), cond) for _ in range(4000)]
        losses = np.array([d[2] for d in draws])
        tputs = np.array([d[0] for d in draws])
        assert losses.mean() == pytest.approx(0.0137 + 0.04, rel=0.1)
        assert tputs.mean() < 64.0 * 0.95

    def test_tput_factor_scales(self):
        model = BulkTransferModel(np.random.default_rng(5))
        halved = PathConditions(tput_factor=0.5)
        draws = [model.measure(kyiv_prewar(), halved)[0] for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(32.0, rel=0.05)

    def test_zero_loss_mean_allowed(self):
        params = MetricParams(10.0, 5.0, 5.0, 2.0, 0.0)
        model = BulkTransferModel(np.random.default_rng(6))
        _tput, _rtt, loss = model.measure(params)
        assert loss == 0.0

    def test_deterministic_with_seed(self):
        a = BulkTransferModel(np.random.default_rng(7))
        b = BulkTransferModel(np.random.default_rng(7))
        assert a.measure(kyiv_prewar()) == b.measure(kyiv_prewar())


class TestValidation:
    def test_metric_params_validated(self):
        with pytest.raises(ValueError):
            MetricParams(0.0, 1.0, 1.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            MetricParams(1.0, 1.0, -1.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            MetricParams(1.0, 1.0, 1.0, 1.0, 1.0)

    def test_path_conditions_validated(self):
        with pytest.raises(ValueError):
            PathConditions(extra_rtt_ms=-1.0)
        with pytest.raises(ValueError):
            PathConditions(extra_loss=1.5)
        with pytest.raises(ValueError):
            PathConditions(tput_factor=0.0)
        with pytest.raises(ValueError):
            PathConditions(tput_factor=1.5)


def measure_reference(rng, params, conditions):
    """The per-test draw as first written: moments and beta shape per call."""
    rtt_mu, rtt_sigma = lognormal_params_from_moments(
        params.rtt_mean_ms, params.rtt_std_ms
    )
    min_rtt = rng.lognormal(rtt_mu, rtt_sigma) + conditions.extra_rtt_ms
    min_rtt = max(0.1, min_rtt)
    if params.loss_mean > 0:
        alpha = params.loss_mean * 3.0
        beta = (1.0 - params.loss_mean) * 3.0
        base_loss = rng.beta(alpha, beta, 1)[0]
    else:
        base_loss = 0.0
    loss = float(np.clip(base_loss + conditions.extra_loss, 0.0, 1.0))
    tput_mu, tput_sigma = lognormal_params_from_moments(
        params.tput_mean_mbps, params.tput_std_mbps
    )
    tput = rng.lognormal(tput_mu, tput_sigma)
    tput *= conditions.tput_factor
    tput /= 1.0 + 4.0 * conditions.extra_loss
    tput = max(0.01, tput)
    return float(tput), float(min_rtt), loss


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


positive = st.floats(min_value=1e-3, max_value=1e4)
metric_params = st.builds(
    MetricParams,
    tput_mean_mbps=positive,
    tput_std_mbps=positive,
    rtt_mean_ms=positive,
    rtt_std_ms=positive,
    loss_mean=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.999)),
)
path_conditions = st.builds(
    PathConditions,
    extra_rtt_ms=st.floats(min_value=0.0, max_value=500.0),
    extra_loss=st.one_of(
        st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
    ),
    tput_factor=st.floats(min_value=1e-3, max_value=1.0),
)


class TestSameDrawsAsReference:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        tests=st.lists(st.tuples(metric_params, path_conditions), min_size=1, max_size=6),
    )
    def test_bitwise_equal_and_same_stream_state(self, seed, tests):
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        model = BulkTransferModel(ra)
        for params, conditions in tests:
            got = model.measure(params, conditions)
            assert all(type(v) is float for v in got)
            assert bits(got) == bits(measure_reference(rb, params, conditions))
        assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize(
        "x",
        [
            float("nan"),
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            2.2250738585072009e-308,
            0.5,
            1.0,
            float(np.nextafter(1.0, 2.0)),
            1.5,
            -1.5,
            float("inf"),
            float("-inf"),
        ],
    )
    def test_loss_clamp_is_np_clip_bitwise(self, x):
        got = clamp_loss(x)
        assert type(got) is float
        assert bits([got]) == bits([float(np.clip(x, 0.0, 1.0))])
