import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from transhop import analytics, oracle, stats
from transhop.params import CommParams, TrafficConditions

COMM = CommParams(r=200.0, r_min=1000.0)
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
    for distributed, interval in ((False, 0.0), (True, 10.0)):
        kw = dict(rng_seed=9, broadcast_interval=interval, distributed=distributed)
        batch = oracle.sample_arrays(4, ASYM, COMM, **kw)
        single = oracle.sample_arrays(1, ASYM, COMM, **kw)
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
        assert ks_against(arrs["tau1"], lambda t: analytics.first_hop_cdf(t, tc, COMM)) < bound
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
    assert np.all(x2 >= -COMM.r)
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
    n = 30000
    arrs = oracle.sample_arrays(n, SYM, COMM, rng_seed=13, distributed=True)
    # drawn ranges are exponential with mean r and reused for both hops of a message
    assert ks_against(arrs["r"], lambda r: -np.expm1(-np.maximum(r, 0.0) / 200.0)) < 1.63 / np.sqrt(n)
    cdf = lambda t: analytics.delivery_cdf_distributed(t, SYM, COMM)
    assert ks_against(arrs["tau3"], cdf) < 1.63 / np.sqrt(n)


def test_periodic_broadcast_shifts_median():
    interval = 10.0
    cont = oracle.sample_arrays(20000, SYM, COMM, rng_seed=21)
    peri = oracle.sample_arrays(20000, SYM, COMM, rng_seed=22, broadcast_interval=interval)
    shift = float(np.median(peri["tau3"]) - np.median(cont["tau3"]))
    assert shift == pytest.approx(interval, abs=3.0)
    # and the periodic samples stochastically dominate the continuous ones
    assert float(np.median(peri["tau1"])) >= float(np.median(cont["tau1"]))


def test_shares_no_code_with_the_closed_forms():
    # the oracle cross-checks analytics only while it imports none of its formulas
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{'.' * node.level}{node.module}.{alias.name}" for alias in node.names}
    assert imported and all(
        name == "numpy" or name.startswith(".params.") for name in imported
    ), imported


def one_shot(n, tc, cp, rng_seed, broadcast_interval=0.0, distributed=False):
    """The sampler's formulas over one (n, cols) draw of whole-length arrays."""
    periodic = broadcast_interval > 0.0
    cols = 2 + distributed + 2 * periodic
    u = 1.0 - np.random.default_rng(rng_seed).random((n, cols))
    col = 0
    if distributed:
        r = -np.log(u[:, col]) / (1.0 / cp.r)
        col += 1
    else:
        r = np.full(n, cp.r)
    x2 = -r + -np.log(u[:, col]) / tc.lambda2
    wait = -np.log(u[:, col + 1]) / (tc.lambda1 * (tc.v1 + tc.v2))
    tau1 = np.maximum(0.0, (x2 - r) / (tc.v1 + tc.v2))
    slack = (x2 + cp.r_min - r) / tc.v2
    tau2 = np.maximum(0.0, slack)
    tau3 = np.maximum(0.0, slack + wait)
    if periodic:
        first_slot = broadcast_interval * (1.0 - u[:, col + 2])
        second_slot = broadcast_interval * (1.0 - u[:, col + 3])
        tau1 = tau1 + first_slot
        tau2 = np.maximum(tau2, tau1)
        tau3 = tau3 + first_slot + second_slot
    return {"x2": x2, "r": r, "tau1": tau1, "tau2": tau2, "tau3": tau3}


@pytest.mark.parametrize("n", [1, oracle.BLOCK - 1, oracle.BLOCK, oracle.BLOCK + 1,
                               3 * oracle.BLOCK + 5])
def test_blocked_draws_equal_one_shot(n):
    for kw in ({}, {"distributed": True}, {"broadcast_interval": 10.0},
               {"distributed": True, "broadcast_interval": 2.5}):
        got = oracle.sample_arrays(n, ASYM, COMM, rng_seed=41, **kw)
        ref = one_shot(n, ASYM, COMM, 41, **kw)
        assert list(got) == list(ref)
        for key in ref:
            assert got[key].tobytes() == ref[key].tobytes(), (kw, key)


def test_sampler_peak_memory():
    # the five returned arrays plus block-sized temporaries; one (n, cols)
    # draw with whole-length temporaries peaked at 10 arrays
    n = 1 << 20
    tracemalloc.start()
    try:
        oracle.sample_arrays(n, SYM, COMM, rng_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 8 * n, peak / (8 * n)
