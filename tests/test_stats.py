import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from scipy.optimize import brentq

from transhop import analytics, oracle, stats
from transhop.params import CommParams, TrafficConditions


def dist(values):
    return stats.EmpiricalDistribution.from_samples(values)


SIZES = (1, 2, 3, 10, 1001)


def tied_samples(n: int) -> np.ndarray:
    """Seeded samples rounded to 0.1, so values repeat, with about 30% of
    them exactly zero, like hop times whose relay is already in range."""
    rng = np.random.default_rng(3)
    x = np.round(rng.exponential(2.0, size=n), 1)
    x[rng.random(n) < 0.3] = 0.0
    return x


def tied_cdf(t):
    """The law of tied_samples before rounding: an atom of 0.3 at zero."""
    return 0.3 + 0.7 * -np.expm1(-np.asarray(t, dtype=float) / 2.0)


def ks_reference(d, cdf) -> float:
    """KS distance over np.unique's distinct values and counts."""
    u, counts = np.unique(d.samples, return_counts=True)
    c = np.cumsum(counts)
    f = np.asarray(cdf(u), dtype=float)
    f_left = f.copy()
    if u[0] == 0.0:
        f_left[0] = 0.0
    return float(max(np.abs(f - c / d.n).max(), np.abs(f_left - (c - counts) / d.n).max()))


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
        with pytest.raises(ValueError):
            stats.quantile(d, float("nan"))

    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_to_numpy(self, n):
        d = dist(tied_samples(n))
        levels = (0.0, 0.1, 0.5, 0.9, 0.95, 1.0)
        for q in levels:
            got = stats.quantile(d, q)
            assert type(got) is float
            assert got == np.quantile(d.samples, q)
        assert np.array_equal(stats.quantile(d, levels), np.quantile(d.samples, levels))


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

    @pytest.mark.parametrize("n", SIZES)
    def test_equals_the_unique_count_reference(self, n):
        d = dist(tied_samples(n))
        assert stats.ks_distance(d, tied_cdf) == ks_reference(d, tied_cdf)

    def test_hand_value_continuous(self):
        # uniform model, samples at the quartiles: every one-sided gap is 0.25
        d = dist([0.25, 0.75])
        cdf = lambda t: np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        assert stats.ks_distance(d, cdf) == 0.25


class TestUncertainty:
    def test_hand_value(self):
        # x_i = i / 5 = [0.2, 0.4, 0.6, 0.8] against F = [0.25, 0.45, 0.55, 0.75]:
        # numerator 4 * 0.05^2 = 0.01, denominator 0.2
        d = dist(np.arange(1.0, 6.0))
        cdf = lambda t: np.interp(t, [1.0, 2.0, 3.0, 4.0, 5.0], [0.25, 0.45, 0.55, 0.75, 0.95])
        u = stats.uncertainty_measure(d, cdf, upper_tau=4.0)
        assert u == pytest.approx(0.05, rel=1e-12)

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
        d = dist([1.0, 2.0, 3.0])
        for upper_tau in (0.5, 1.5):
            with pytest.raises(ValueError, match="fewer than two samples"):
                stats.uncertainty_measure(d, lambda t: np.asarray(t) / 3.0, upper_tau)


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


def stage_cdf_cases():
    """Seeded (name, cdf, level) triples over the three stage CDFs."""
    rng = np.random.default_rng(18)
    for _ in range(40):
        tc = TrafficConditions(
            v1=rng.uniform(10.0, 40.0),
            v2=rng.uniform(10.0, 40.0),
            rho1=rng.uniform(0.005, 0.1),
            rho2=rng.uniform(0.005, 0.1),
            alpha=rng.uniform(0.005, 0.5),
        )
        r = rng.uniform(100.0, 500.0)
        cp = CommParams(r=r, r_min=rng.uniform(2.1 * r, 20.0 * r))
        for name, cdf in analytics.stage_cdfs(tc, cp).items():
            for q in (0.5, 0.9, 0.95, rng.uniform(0.01, 0.99)):
                yield name, cdf, q


class TestBrent:
    """stats' root finder against scipy's brentq, bit for bit."""

    def test_invert_cdf_equals_brentq(self):
        for name, cdf, q in stage_cdf_cases():
            if float(cdf(0.0)) >= q:
                assert stats.invert_cdf(cdf, q) == 0.0
                continue
            hi = 1.0  # invert_cdf's own bracket
            while float(cdf(hi)) < q:
                hi *= 2.0
            ref = brentq(lambda t: float(cdf(t)) - q, 0.0, hi, xtol=1e-9, rtol=1e-13)
            assert stats.invert_cdf(cdf, q) == ref, (name, q)

    def test_equals_brentq_on_random_brackets(self):
        # loose tolerances and a flat ninth-power root reach the step rules
        # that the CDFs at invert_cdf's tolerances rarely do
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b, c, d = rng.uniform(-3.0, 3.0, 4)
            lo, hi = sorted(rng.uniform(-10.0, 10.0, 2))
            for f in (
                lambda x: math.tanh(a * x + b) + 0.3 * math.sin(c * x + d),
                lambda x: math.copysign(abs(x - a) ** 9, x - a),
            ):
                if (f(lo) < 0.0) == (f(hi) < 0.0):
                    continue
                for xtol, rtol in ((1e-9, 1e-13), (1e-3, 1e-6), (0.5, 1e-2)):
                    ref = brentq(f, lo, hi, xtol=xtol, rtol=rtol)
                    assert stats._brentq(f, lo, hi, f(lo), f(hi), xtol, rtol) == ref

    def test_refusals(self):
        # a square-root root at zero with xtol 1e-300 outlasts 100 steps, in brentq too
        f = lambda x: math.copysign(math.sqrt(abs(x)), x)
        with pytest.raises(RuntimeError):
            stats._brentq(f, -1.0, 2.0, f(-1.0), f(2.0), 1e-300, 1e-15)
        f = lambda x: math.exp(x) - 2.0
        with pytest.raises(ValueError, match="different signs"):
            stats._brentq(f, 0.0, 0.5, f(0.0), f(0.5), 1e-9, 1e-13)
        # NaN where the first step lands, then NaN at the bracket's lower end
        nan_inside = lambda t: float("nan") if 0.2 < t < 0.8 else min(max(t, 0.0), 1.0)
        with pytest.raises(ValueError, match="NaN"):
            stats.invert_cdf(nan_inside, 0.5)
        with pytest.raises(ValueError, match="NaN"):
            stats.invert_cdf(lambda t: float("nan") if t == 0.0 else 1.0, 0.5)


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

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_equals_the_statistics_called_alone(self, n):
        x = tied_samples(n)
        entry = stats.comparison_report({"t": x}, {"t": tied_cdf})["t"]
        d = dist(x)
        q95 = stats.invert_cdf(tied_cdf, 0.95)
        assert entry["model_q95"] == q95 == entry["model_quantiles"]["0.95"]
        assert entry["U"] == stats.uncertainty_measure(d, tied_cdf, q95)
        assert entry["KS"] == stats.ks_distance(d, tied_cdf)
        assert entry["quantiles"]["0.9"] == np.quantile(x, 0.9)

    def test_refusals(self):
        half = lambda t: np.clip(np.asarray(t, dtype=float) / 2.0, 0.0, 1.0)
        # model q95 = 1.9: one sample of the three lies in the U window
        with pytest.raises(ValueError, match="fewer than two samples"):
            stats.comparison_report({"a": [1.0, 2.0, 3.0]}, {"a": half})
        with pytest.raises(ValueError, match="fewer than two samples"):
            stats.comparison_report({"a": [0.0]}, {"a": tied_cdf})
        with pytest.raises(ValueError, match="empty"):
            stats.comparison_report({"a": []}, {"a": half})
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                stats.comparison_report({"a": [1.0, 1.5, bad]}, {"a": half})

    def test_missing_cdf_is_an_error(self):
        with pytest.raises(KeyError):
            stats.comparison_report({"a": [1.0, 2.0]}, {})


def u_reference(d, cdf, k) -> float:
    """U over whole arrays: i / n and the model at each of the first k samples."""
    x = np.arange(1, k + 1, dtype=float) / d.n
    xhat = np.asarray(cdf(d.samples[:k]), dtype=float)
    return float(np.sum((x - xhat) ** 2) / float(np.sum((x - x.mean()) ** 2)))


class TestBlockedComparison:
    """The blocked scan against whole-array references, over blocks that cut
    runs of ties, including the point mass at zero."""

    N = 3 * stats.BLOCK + 7

    @pytest.mark.parametrize("block", [0, 1, 3])
    def test_equals_whole_array_references(self, block):
        x = tied_samples(self.N)
        d = dist(x)
        s = d.samples
        # a model stretched so its 95% quantile falls between two distinct
        # sample values, and U's window ends in the chosen block
        j = {0: 0, 1: 3 * stats.BLOCK // 2, 3: self.N - 4}[block]
        above = s[np.searchsorted(s, s[j], side="right")]
        q95_0 = stats.invert_cdf(tied_cdf, 0.95)
        c = (s[j] + above) / 2 / q95_0
        cdf = lambda t: tied_cdf(np.asarray(t, dtype=float) / c)
        entry = stats.comparison_report({"t": x}, {"t": cdf})["t"]
        k = int(np.searchsorted(s, entry["model_q95"], side="right"))
        assert (k - 1) // stats.BLOCK == block
        assert entry["KS"] == ks_reference(d, cdf) == stats.ks_distance(d, cdf)
        assert entry["U"] == u_reference(d, cdf, k)
        calls = []

        def counted(t):
            calls.append(t)
            return cdf(t)

        # without KS the scan stops at the block where U's window ends
        assert entry["U"] == stats.uncertainty_measure(d, counted, entry["model_q95"])
        assert len(calls) == block + 1

    def test_peak_memory(self):
        # the sorted copy and U's one window-sized buffer; whole-length model,
        # gap and difference arrays peaked at about 9 arrays
        n = 1 << 20
        tc = TrafficConditions.symmetric(v=25.0, rho=0.03, alpha=0.05)
        cp = CommParams(r=200.0, r_min=1000.0)
        x = oracle.sample_arrays(n, tc, cp, rng_seed=3)["tau3"]
        tracemalloc.start()
        try:
            stats.comparison_report({"t": x}, {"t": analytics.cdf_function("P3", tc, cp)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * n, peak / (8 * n)
