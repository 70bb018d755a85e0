import math

import numpy as np
import pytest
import scipy.stats

from transhop import stats


def dist(values):
    return stats.EmpiricalDistribution.from_samples(values)


class TestEmpiricalDistribution:
    def test_sorts_and_counts(self):
        d = dist([3.0, 1.0, 2.0])
        assert d.n == 3
        assert list(d.samples) == [1.0, 2.0, 3.0]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            dist([])
        with pytest.raises(ValueError):
            dist([1.0, float("nan")])
        with pytest.raises(ValueError):
            dist([1.0, float("inf")])


class TestQuantile:
    def test_quantile_interpolates(self):
        d = dist([0.0, 10.0])
        assert stats.quantile(d, 0.5) == 5.0
        assert stats.quantile(d, 0.0) == 0.0
        assert stats.quantile(d, 1.0) == 10.0
        with pytest.raises(ValueError):
            stats.quantile(d, 1.0001)
        with pytest.raises(ValueError):
            stats.quantile(d, [-0.2, 0.5])


class TestKsDistance:
    def test_matches_scipy_on_continuous_data(self):
        rng = np.random.default_rng(42)
        x = rng.normal(3.0, 2.0, size=500)
        ours = stats.ks_distance(dist(x), lambda t: scipy.stats.norm.cdf(t, 3.0, 2.0))
        ref = scipy.stats.kstest(x, lambda t: scipy.stats.norm.cdf(t, 3.0, 2.0)).statistic
        assert ours == pytest.approx(ref, rel=1e-14)

    def test_point_mass_at_zero(self):
        # model: atom of 0.5 at zero, then linear; samples share the atom
        d = dist([0.0, 0.0, 1.0])
        cdf = lambda t: np.clip(0.5 + 0.25 * np.asarray(t, dtype=float), 0.0, 1.0)
        assert stats.ks_distance(d, cdf) == pytest.approx(0.25, abs=1e-15)

    def test_hand_value_continuous(self):
        # uniform model, samples at the quartiles: every one-sided gap is 0.25
        d = dist([0.25, 0.75])
        cdf = lambda t: np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        assert stats.ks_distance(d, cdf) == 0.25


class TestUncertainty:
    def test_hand_value(self):
        x = [0.2, 0.4, 0.6, 0.8]
        xhat = [0.25, 0.45, 0.55, 0.75]
        # numerator 4 * 0.05^2 = 0.01, denominator 0.2
        assert stats.uncertainty_from_cumulatives(x, xhat) == pytest.approx(0.05, rel=1e-12)

    def test_zero_on_exact_agreement(self):
        d = dist(np.arange(1.0, 11.0))
        u = stats.uncertainty_measure(d, lambda t: np.asarray(t) / 10.0, upper_tau=5.0)
        assert u == 0.0

    def test_window_uses_full_sample_count(self):
        # observed cumulative at the i-th order statistic is i/n with the FULL
        # n = 10, not the 5 samples inside the window: x = [0.1..0.5] against
        # xhat = [0.05..0.25] gives 0.1375 / 0.1 exactly
        d = dist(np.arange(1.0, 11.0))
        u = stats.uncertainty_measure(d, lambda t: np.asarray(t) / 20.0, upper_tau=5.0)
        assert u == pytest.approx(1.375, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            stats.uncertainty_from_cumulatives([0.1], [0.1])
        with pytest.raises(ValueError):
            stats.uncertainty_from_cumulatives([0.1, 0.2], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            stats.uncertainty_from_cumulatives([0.3, 0.3], [0.1, 0.2])
        d = dist([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            stats.uncertainty_measure(d, lambda t: np.asarray(t) / 3.0, upper_tau=1.5)


class TestInvertCdf:
    def test_round_trip(self):
        cdf = lambda t: -math.expm1(-0.05 * max(t - 7.0, 0.0))
        for q in (0.1, 0.5, 0.9, 0.99):
            tau = stats.invert_cdf(cdf, q)
            assert tau == pytest.approx(7.0 - math.log1p(-q) / 0.05, abs=1e-8)

    def test_atom_returns_lower_bound(self):
        cdf = lambda t: 0.6 if t >= 2.0 else 0.0
        assert stats.invert_cdf(cdf, 0.5, lo=2.0) == 2.0

    def test_unreachable_level_raises(self):
        cdf = lambda t: 0.4 * -math.expm1(-t) if t > 0 else 0.0
        with pytest.raises(ValueError):
            stats.invert_cdf(cdf, 0.5)

    def test_level_bounds(self):
        cdf = lambda t: min(max(t, 0.0), 1.0)
        with pytest.raises(ValueError):
            stats.invert_cdf(cdf, 0.0)
        with pytest.raises(ValueError):
            stats.invert_cdf(cdf, 1.0)


class TestComparisonReport:
    def test_schema_and_values(self):
        rng = np.random.default_rng(7)
        x = rng.exponential(10.0, size=4000)
        cdf = lambda t: -np.expm1(-np.asarray(t, dtype=float) / 10.0)
        rep = stats.comparison_report({"wait": x}, {"wait": cdf}, quantile_levels=(0.25, 0.5))
        entry = rep["wait"]
        assert set(entry) == {"n", "U", "KS", "model_q95", "quantiles", "model_quantiles"}
        assert entry["n"] == 4000
        assert set(entry["quantiles"]) == {"0.25", "0.5"}
        assert entry["model_quantiles"]["0.5"] == pytest.approx(10.0 * math.log(2.0), abs=1e-6)
        assert entry["model_q95"] == pytest.approx(10.0 * math.log(20.0), abs=1e-6)
        assert entry["U"] < 0.01
        assert entry["KS"] < 1.63 / math.sqrt(4000)

    def test_missing_cdf_is_an_error(self):
        with pytest.raises(KeyError):
            stats.comparison_report({"a": [1.0, 2.0]}, {})
