"""Tests for the seedable distributions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.distributions import (Choice, Constant, LogNormal, Mixture,
                                     Uniform, lognormal_from_median_mean)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBasics:
    def test_constant_always_returns_value(self):
        dist = Constant(3.5)
        assert dist.sample(rng()) == 3.5
        assert (dist.sample_many(rng(), 5) == 3.5).all()

    def test_uniform_within_bounds(self):
        samples = Uniform(2.0, 5.0).sample_many(rng(), 1000)
        assert samples.min() >= 2.0
        assert samples.max() <= 5.0

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Uniform(5.0, 2.0)

    def test_uniform_rejects_infinite_bound(self):
        with pytest.raises(ValueError, match="finite"):
            Uniform(0.0, math.inf)

    def test_uniform_rejects_range_that_overflows(self):
        with pytest.raises(ValueError, match="finite"):
            Uniform(-1e308, 1e308)

    def test_uniform_rejects_nan_bound(self):
        with pytest.raises(ValueError, match="finite"):
            Uniform(math.nan, 1.0)

    def test_uniform_rejects_negative_zero_span(self):
        # -0.0 - 0.0 is -0.0, which numpy's uniform rejects as negative
        with pytest.raises(ValueError, match="non-negative"):
            Uniform(0.0, -0.0)
        assert Uniform(-0.0, 0.0).sample(rng()) == 0.0

    def test_determinism_under_same_seed(self):
        dist = LogNormal(1.0, 0.5)
        assert np.allclose(dist.sample_many(rng(7), 10),
                           dist.sample_many(rng(7), 10))


class TestLogNormal:
    def test_median_and_mean_properties(self):
        dist = LogNormal(mu=math.log(100.0), sigma=1.0)
        assert dist.median == pytest.approx(100.0)
        assert dist.mean == pytest.approx(100.0 * math.exp(0.5))

    def test_empirical_median_matches(self):
        dist = LogNormal(mu=math.log(50.0), sigma=0.8)
        samples = dist.sample_many(rng(), 40000)
        assert np.median(samples) == pytest.approx(50.0, rel=0.05)

    def test_fit_from_median_mean(self):
        dist = lognormal_from_median_mean(median=10.0, mean=25.0)
        assert dist.median == pytest.approx(10.0)
        assert dist.mean == pytest.approx(25.0)

    def test_fit_degenerate_mean_below_median(self):
        dist = lognormal_from_median_mean(median=10.0, mean=8.0)
        assert dist.median == pytest.approx(10.0)
        assert dist.sigma == pytest.approx(0.05)

    def test_fit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lognormal_from_median_mean(0.0, 5.0)

    @given(median=st.floats(0.1, 1e4), ratio=st.floats(1.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_fit_roundtrips_any_valid_pair(self, median, ratio):
        dist = lognormal_from_median_mean(median, median * ratio)
        assert dist.median == pytest.approx(median, rel=1e-6)
        assert dist.mean == pytest.approx(median * ratio, rel=1e-6)


class TestMixture:
    def test_component_weights_respected(self):
        mix = Mixture([Constant(0.0), Constant(1.0)], [0.25, 0.75])
        samples = mix.sample_many(rng(), 20000)
        assert samples.mean() == pytest.approx(0.75, abs=0.02)

    def test_sample_many_matches_single_sampling_distribution(self):
        mix = Mixture([Uniform(0, 1), Uniform(10, 11)], [0.5, 0.5])
        many = mix.sample_many(rng(1), 5000)
        singles = np.array([mix.sample(rng(2)) for _ in range(1)])
        assert many.min() >= 0.0
        assert singles.size == 1

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Mixture([Constant(1.0)], [0.5, 0.5])

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            Mixture([Constant(1.0)], [0.0])

    def test_weights_are_normalized(self):
        mix = Mixture([Constant(0.0), Constant(1.0)], [2.0, 6.0])
        assert mix.weights.sum() == pytest.approx(1.0)


class TestChoice:
    def test_options_preserved(self):
        choice = Choice(["a", "b"], [1.0, 3.0])
        samples = choice.sample_many(rng(), 4000)
        assert set(samples) == {"a", "b"}
        assert samples.count("b") / len(samples) == pytest.approx(
            0.75, abs=0.03)

    def test_single_sample_returns_an_option(self):
        assert Choice([7], [1.0]).sample(rng()) == 7

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Choice([], [])

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            Choice([1, 2], [1.0])

    def test_non_numeric_options_supported(self):
        choice = Choice([{"x": 1}, {"x": 2}], [1, 1])
        assert choice.sample(rng()) in ({"x": 1}, {"x": 2})


def _choice(weights):
    return Choice(list(range(len(weights))), weights)


def _mixture(weights):
    return Mixture([Constant(float(i)) for i in range(len(weights))],
                   weights)


@pytest.mark.parametrize("build", [_choice, _mixture],
                         ids=["Choice", "Mixture"])
class TestWeightValidation:
    """Bad weights fail at construction, not at the first ``sample``."""

    def test_rejects_negative_weight(self, build):
        with pytest.raises(ValueError, match="non-negative"):
            build([-0.5, 1.5])

    def test_rejects_nan_weight(self, build):
        with pytest.raises(ValueError, match="finite"):
            build([math.nan, 1.0])

    def test_rejects_infinite_weight_without_warning(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                build([math.inf, 1.0])

    def test_rejects_sum_that_overflows(self, build):
        with pytest.raises(ValueError, match="positive"):
            build([1e308, 1e308])

    def test_accepts_zero_and_tiny_weights(self, build):
        dist = build([0.0, 5e-324, 0.0])
        assert dist.sample(rng()) == 1
