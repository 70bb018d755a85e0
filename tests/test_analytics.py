import numpy as np
import pytest
from scipy import integrate

from transhop import analytics
from transhop.params import CommParams, TrafficConditions

COMM = CommParams.fixed(r=200.0, r_min=1000.0)


def symmetric(alpha: float) -> TrafficConditions:
    return TrafficConditions.symmetric(v=25.0, rho=0.03, alpha=alpha)


def degenerate(rel_eps: float = 0.0) -> TrafficConditions:
    """Conditions with lambda_tilde1 = lambda2 (1 + rel_eps)."""
    v1, v2, rho2, alpha = 25.0, 25.0, 0.03, 0.05
    rho1 = (1.0 + rel_eps) * rho2 * v2 / (v1 + v2)
    return TrafficConditions(v1, v2, rho1, rho2, alpha)


class TestFrozenValues:
    """Reference numbers computed independently and pinned."""

    def test_first_hop_at_zero(self):
        got = analytics.first_hop_cdf(0.0, symmetric(0.02), 200.0)
        assert got == pytest.approx(0.2133721389334466, rel=1e-12)

    def test_availability(self):
        got = analytics.availability_cdf(90.7, symmetric(0.02), COMM)
        assert got == pytest.approx(0.6323044525718764, rel=1e-12)

    def test_delivery(self):
        got = analytics.delivery_cdf(106.0, symmetric(0.02), COMM)
        assert got == pytest.approx(0.5008497956056024, rel=1e-12)

    def test_delivery_symmetric(self):
        lam = symmetric(0.02).lambda2
        got = analytics.delivery_cdf_symmetric(222.0, lam, 25.0, COMM)
        assert got == pytest.approx(0.9000254089871749, rel=1e-12)

    def test_median_and_means(self):
        lam = symmetric(0.02).lambda2
        assert analytics.delivery_time_quantile(0.5, lam, 25.0, COMM) == pytest.approx(
            105.86314515330106, rel=1e-12
        )
        assert analytics.mean_availability_time(lam, 25.0, COMM) == pytest.approx(
            90.0 + 2.0 / 3.0, rel=1e-12
        )
        assert analytics.mean_delivery_time(lam, 25.0, COMM) == pytest.approx(
            124.0, rel=1e-12
        )

    def test_info_speed_saturates(self):
        kmh = 3.6 * analytics.info_speed(0.5 * 0.03, 25.0, COMM)
        assert kmh == pytest.approx(128.57142857142858, rel=1e-12)
        # relay-transport ceiling: v * r_min / (r_min - 2r)
        ceiling = 25.0 * 1000.0 / 600.0
        assert analytics.info_speed(10.0, 25.0, COMM) < ceiling
        assert analytics.info_speed(10.0, 25.0, COMM) == pytest.approx(
            ceiling, rel=1e-2
        )


class TestStructure:
    def test_first_hop_independent_of_direction1(self):
        taus = np.linspace(0.0, 60.0, 7)
        a = TrafficConditions(v1=20.0, v2=25.0, rho1=0.01, rho2=0.03, alpha=0.05)
        b = TrafficConditions(v1=20.0, v2=25.0, rho1=0.08, rho2=0.03, alpha=0.05)
        assert np.array_equal(
            analytics.first_hop_cdf(taus, a, 200.0),
            analytics.first_hop_cdf(taus, b, 200.0),
        )

    def test_availability_independent_of_direction1(self):
        taus = np.linspace(0.0, 400.0, 23)
        a = TrafficConditions(v1=20.0, v2=25.0, rho1=0.01, rho2=0.03, alpha=0.05)
        b = TrafficConditions(v1=35.0, v2=25.0, rho1=0.08, rho2=0.03, alpha=0.05)
        assert np.array_equal(
            analytics.availability_cdf(taus, a, COMM),
            analytics.availability_cdf(taus, b, COMM),
        )

    def test_symmetric_reduction_exact(self):
        taus = np.linspace(0.0, 900.0, 401)
        for alpha in (0.01, 0.05, 0.3):
            tc = symmetric(alpha)
            general = analytics.delivery_cdf(taus, tc, COMM)
            reduced = analytics.delivery_cdf_symmetric(taus, tc.lambda2, 25.0, COMM)
            assert np.max(np.abs(general - reduced)) <= 1e-12

    def test_zero_below_kinematic_limit(self):
        tc = symmetric(0.05)
        tau_min = COMM.tau_min(tc.v2)
        assert analytics.availability_cdf(tau_min, tc, COMM) == 0.0
        assert analytics.delivery_cdf(tau_min, tc, COMM) == 0.0
        assert analytics.availability_cdf(tau_min + 1.0, tc, COMM) > 0.0

    def test_degenerate_rates_continuous(self):
        # lambda_tilde1 == lambda2 engages the confluent branch; approaching
        # the degeneracy from either side must agree with the limit.
        v1, v2 = 25.0, 25.0
        rho2, alpha = 0.03, 0.05
        lam2 = alpha * rho2
        rho1_star = lam2 * v2 / (alpha * (v1 + v2))  # makes eps exactly 0
        taus = np.linspace(0.0, 600.0, 101)
        at = analytics.delivery_cdf(
            taus, TrafficConditions(v1, v2, rho1_star, rho2, alpha), COMM
        )
        for off in (1e-7, -1e-7):
            near = analytics.delivery_cdf(
                taus, TrafficConditions(v1, v2, rho1_star * (1.0 + off), rho2, alpha), COMM
            )
            assert np.max(np.abs(near - at)) < 1e-6

    def test_quantile_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            lam = float(rng.uniform(1e-4, 0.05))
            v = float(rng.uniform(5.0, 45.0))
            q = float(rng.uniform(0.01, 0.99))
            tau = analytics.delivery_time_quantile(q, lam, v, COMM)
            assert analytics.delivery_cdf_symmetric(tau, lam, v, COMM) == pytest.approx(
                q, abs=1e-10
            )

    def test_convolution_identity(self):
        # delivery = availability stage convolved with the exponential
        # receiver wait at rate lambda1 (v1 + v2)
        tc = TrafficConditions(v1=20.0, v2=30.0, rho1=0.02, rho2=0.035, alpha=0.07)
        tau_min = COMM.tau_min(tc.v2)
        rate2 = tc.lambda2 * tc.v2
        rate1 = tc.lambda1 * (tc.v1 + tc.v2)

        def by_quadrature(tau):
            val, _ = integrate.quad(
                lambda s: rate2
                * np.exp(-rate2 * (s - tau_min))
                * -np.expm1(-rate1 * (tau - s)),
                tau_min,
                tau,
                limit=200,
                epsabs=1e-11,
            )
            return val

        for tau in np.linspace(tau_min + 5.0, tau_min + 500.0, 9):
            direct = analytics.delivery_cdf(tau, tc, COMM)
            assert direct == pytest.approx(by_quadrature(tau), abs=1e-6)


class TestDistributedRanges:
    CP_DIST = CommParams.exponential(lambda_r=1.0 / 200.0, r_min=1000.0)

    def test_matches_quadrature(self):
        lam_r = self.CP_DIST.range_rate

        def by_quadrature(tau, tc):
            def integrand(r0):
                inner = CommParams.fixed(r0, 1000.0)
                return lam_r * np.exp(-lam_r * r0) * analytics.delivery_cdf(tau, tc, inner)

            kink = 0.5 * (1000.0 - tc.v2 * tau)
            hi = 40.0 / lam_r
            pts = [kink] if 0.0 < kink < hi else None
            val, _ = integrate.quad(
                integrand, 0.0, hi, points=pts, limit=300, epsabs=1e-12, epsrel=1e-12
            )
            return val

        for tc in (symmetric(0.05), degenerate()):
            for tau in (5.0, 20.0, 40.0, 80.0, 160.0, 320.0):
                closed = analytics.delivery_cdf_distributed(tau, tc, self.CP_DIST)
                assert closed == pytest.approx(by_quadrature(tau, tc), abs=1e-10)

    def test_continuous_across_the_degenerate_branch(self):
        taus = np.array([5.0, 20.0, 40.0, 80.0, 160.0, 320.0])
        tc = degenerate()
        assert abs(tc.lambda_tilde1 / tc.lambda2 - 1.0) < analytics.DEGENERACY_RTOL
        limit = analytics.delivery_cdf_distributed(taus, tc, self.CP_DIST)
        for rel_eps in (-1e-6, 1e-6):
            near = analytics.delivery_cdf_distributed(taus, degenerate(rel_eps), self.CP_DIST)
            assert np.abs(near - limit).max() < 1e-6

    def test_fixed_model_rejected(self):
        with pytest.raises(ValueError):
            analytics.delivery_cdf_distributed(50.0, symmetric(0.05), COMM)


class TestCurves:
    def test_cdf_function_on_a_grid(self):
        taus = np.linspace(0.0, 600.0, 61)
        tc = symmetric(0.05)
        for quantity in analytics.CURVE_QUANTITIES:
            probs = analytics.cdf_function(quantity, tc, self.cp_for(quantity))(taus)
            assert probs.shape == taus.shape
            assert np.all((probs >= 0.0) & (probs <= 1.0))
            assert np.all(np.diff(probs) >= -1e-12)

    @staticmethod
    def cp_for(quantity):
        if quantity == "P3dist":
            return CommParams.exponential(lambda_r=1.0 / 200.0, r_min=1000.0)
        return COMM

    def test_unknown_quantity(self):
        with pytest.raises(ValueError, match="P9"):
            analytics.cdf_function("P9", symmetric(0.05), COMM)


class TestErrors:
    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            analytics.first_hop_cdf(-1.0, symmetric(0.05), 200.0)

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ValueError):
            analytics.first_hop_cdf(1.0, symmetric(0.05), 0.0)

    def test_quantile_level_bounds(self):
        lam = symmetric(0.05).lambda2
        for q in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                analytics.delivery_time_quantile(q, lam, 25.0, COMM)

    def test_zero_density_means_reject(self):
        with pytest.raises(ValueError):
            analytics.mean_availability_time(0.0, 25.0, COMM)
        with pytest.raises(ValueError):
            analytics.mean_delivery_time(0.0, 25.0, COMM)
