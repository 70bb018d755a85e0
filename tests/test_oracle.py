import numpy as np
import pytest

from transhop import analytics, oracle, stats
from transhop.params import CommParams, TrafficConditions

COMM = CommParams.fixed(r=200.0, r_min=1000.0)
SYM = TrafficConditions.symmetric(v=25.0, rho=0.03, alpha=0.05)
ASYM = TrafficConditions(v1=20.0, v2=30.0, rho1=0.02, rho2=0.035, alpha=0.07)


def ks_against(samples, cdf) -> float:
    return stats.ks_distance(stats.EmpiricalDistribution.from_samples(samples), cdf)


def test_deterministic_under_seed():
    a = oracle.sample_arrays(500, SYM, COMM, rng_seed=123)
    b = oracle.sample_arrays(500, SYM, COMM, rng_seed=123)
    for key in a:
        assert np.array_equal(a[key], b[key])
    c = oracle.sample_arrays(500, SYM, COMM, rng_seed=124)
    assert not np.array_equal(a["tau3"], c["tau3"])


def test_first_row_of_batch_is_single_draw():
    ranged = CommParams.exponential(lambda_r=1.0 / 200.0, r_min=1000.0)
    for cp, interval in ((COMM, 0.0), (ranged, 10.0)):
        kw = dict(rng_seed=9, broadcast_interval=interval)
        batch = oracle.sample_arrays(4, ASYM, cp, **kw)
        single = oracle.sample_arrays(1, ASYM, cp, **kw)
        for key in ("x2", "r", "tau1", "tau2", "tau3"):
            assert batch[key][0] == single[key][0]
            assert batch[key].shape == (4,)


def test_stage_ordering_and_support():
    arrs = oracle.sample_arrays(20000, ASYM, COMM, rng_seed=31)
    assert np.all(arrs["tau1"] >= 0.0)
    assert np.all(arrs["tau2"] >= arrs["tau1"])
    assert np.all(arrs["tau3"] > arrs["tau2"])
    # nothing can arrive before the kinematic limit
    assert np.min(arrs["tau2"]) >= COMM.tau_min(ASYM.v2)
    assert np.min(arrs["tau1"]) == 0.0  # relays already in range at creation


def test_matches_closed_forms():
    n = 30000
    bound = 1.63 / np.sqrt(n)  # far beyond sampling noise at this n
    for seed, tc in ((1, SYM), (2, ASYM)):
        arrs = oracle.sample_arrays(n, tc, COMM, rng_seed=seed)
        r = COMM.fixed_r
        assert ks_against(arrs["tau1"], lambda t: analytics.first_hop_cdf(t, tc, r)) < bound
        assert ks_against(arrs["tau2"], lambda t: analytics.availability_cdf(t, tc, COMM)) < bound
        assert ks_against(arrs["tau3"], lambda t: analytics.delivery_cdf(t, tc, COMM)) < bound


def test_mean_delivery_time():
    tc = TrafficConditions.symmetric(v=25.0, rho=0.03, alpha=0.02)
    arrs = oracle.sample_arrays(200000, tc, COMM, rng_seed=77)
    assert float(arrs["tau3"].mean()) == pytest.approx(124.0, abs=1.0)


def test_availability_blind_to_direction1():
    # same seed, different direction-1 traffic: the relay leg is untouched
    other = TrafficConditions(v1=33.0, v2=30.0, rho1=0.09, rho2=0.035, alpha=0.07)
    a = oracle.sample_arrays(5000, ASYM, COMM, rng_seed=5)
    b = oracle.sample_arrays(5000, other, COMM, rng_seed=5)
    assert np.array_equal(a["tau2"], b["tau2"])
    assert not np.array_equal(a["tau1"], b["tau1"])


def test_relay_start_positions():
    arrs = oracle.sample_arrays(30000, SYM, COMM, rng_seed=8)
    x2 = arrs["x2"]
    assert np.all(x2 >= -COMM.fixed_r)
    lam2 = SYM.lambda2
    cdf = lambda x: -np.expm1(-lam2 * (np.maximum(x, -200.0) + 200.0))
    assert ks_against(x2, cdf) < 1.63 / np.sqrt(x2.size)


def test_zero_equipped_density_rejected():
    dead = TrafficConditions.symmetric(v=25.0, rho=0.03, alpha=0.0)
    with pytest.raises(ValueError):
        oracle.sample_arrays(10, dead, COMM, rng_seed=1)
    one_sided = TrafficConditions(v1=25.0, v2=25.0, rho1=0.0, rho2=0.03, alpha=0.5)
    with pytest.raises(ValueError):
        oracle.sample_arrays(10, one_sided, COMM, rng_seed=1)


def test_argument_validation():
    with pytest.raises(ValueError):
        oracle.sample_arrays(0, SYM, COMM, rng_seed=1)
    with pytest.raises(ValueError):
        oracle.sample_arrays(10, SYM, COMM, rng_seed=1, broadcast_interval=-1.0)


def test_exponential_ranges():
    cp = CommParams.exponential(lambda_r=1.0 / 200.0, r_min=1000.0)
    n = 30000
    arrs = oracle.sample_arrays(n, SYM, cp, rng_seed=13)
    # drawn ranges are exponential and reused for both hops of a message
    assert ks_against(arrs["r"], lambda r: -np.expm1(-np.maximum(r, 0.0) / 200.0)) < 1.63 / np.sqrt(n)
    cdf = lambda t: analytics.delivery_cdf_distributed(t, SYM, cp)
    assert ks_against(arrs["tau3"], cdf) < 1.63 / np.sqrt(n)


def test_periodic_broadcast_shifts_median():
    interval = 10.0
    cont = oracle.sample_arrays(20000, SYM, COMM, rng_seed=21)
    peri = oracle.sample_arrays(20000, SYM, COMM, rng_seed=22, broadcast_interval=interval)
    shift = float(np.median(peri["tau3"]) - np.median(cont["tau3"]))
    assert shift == pytest.approx(interval, abs=3.0)
    # and the periodic samples stochastically dominate the continuous ones
    assert float(np.median(peri["tau1"])) >= float(np.median(cont["tau1"]))
