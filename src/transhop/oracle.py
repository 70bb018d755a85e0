"""Direct Monte Carlo sampling of the idealized transversal-hop kinematics.

This module draws the physical story sample by sample: where the relay
starts, when the first hop happens, when the relay's broadcasts reach the
destination region, and how long the first receiver takes to show up.  It
deliberately shares no code with the closed forms in
:mod:`transhop.analytics` beyond the parameter types, so agreement between
the two is a genuine cross-check rather than a tautology.

All exponential variates use the inverse CDF, -ln(u) / rate with u in
(0, 1], so a run is reproducible from its seed across platforms.

Geometry (source-relative coordinates, source created at 0):

* the relay starts at X2 = -r + Exp(lambda2), closing at v1 + v2;
* tau1 = max(0, (X2 - r) / (v1 + v2));
* the relay becomes useful at position -r_min + r, so
  tau2 = max(0, (X2 + r_min - r) / v2);
* the first receiver arrives an Exp(lambda1 (v1 + v2)) wait after the
  relay's (unclamped) slack runs out, and tau3 clamps the sum at zero.

The distinction in the last step only matters for ranges wider than
r_min / 2, where the relay can start already within reach and the wait
clock effectively began before the message existed.  Sampling it this way
keeps every draw distributed exactly per the closed forms, wide ranges
included.

In this geometry tau1 <= tau2 always holds; the fields are still reported
independently and no ordering is asserted.
"""

import numpy as np

from .params import CommParams, ExponentialRange, TrafficConditions


def _exp_inverse_cdf(u: np.ndarray, rate: float) -> np.ndarray:
    # u in (0, 1]; -log(u) is then a clean Exp(1) draw with no log(0) risk.
    return -np.log(u) / rate


def sample_arrays(
    n: int,
    tc: TrafficConditions,
    cp: CommParams,
    rng_seed: int,
    broadcast_interval: float = 0.0,
) -> dict:
    """Draw n message passages and return the stage times as arrays.

    The uniform draws are laid out one row per sample, so the first sample
    of a batch is identical to a single-sample batch with the same seed.

    Args:
        broadcast_interval: 0 for continuous broadcasting.  A positive value
            models periodic broadcasting every broadcast_interval seconds:
            each hop waits for the sender's next broadcast slot, adding an
            independent U[0, interval) delay per hop.

    Returns:
        dict with keys "x2", "r", "tau1", "tau2", "tau3" (float arrays).
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    if broadcast_interval < 0.0:
        raise ValueError("broadcast interval must be non-negative")
    lam1 = tc.lambda1
    lam2 = tc.lambda2
    if lam1 <= 0.0 or lam2 <= 0.0:
        raise ValueError(
            "zero equipped density in either direction: the passage never terminates"
        )
    distributed = isinstance(cp.range_model, ExponentialRange)
    periodic = broadcast_interval > 0.0
    cols = 2 + (1 if distributed else 0) + (2 if periodic else 0)

    rng = np.random.default_rng(rng_seed)
    u = 1.0 - rng.random((n, cols))  # each entry in (0, 1]
    col = 0
    if distributed:
        r = _exp_inverse_cdf(u[:, col], cp.range_rate)
        col += 1
    else:
        r = np.full(n, cp.fixed_r)
    x2 = -r + _exp_inverse_cdf(u[:, col], lam2)
    col += 1
    receiver_wait = _exp_inverse_cdf(u[:, col], lam1 * (tc.v1 + tc.v2))
    col += 1

    tau1 = np.maximum(0.0, (x2 - r) / (tc.v1 + tc.v2))
    slack = (x2 + cp.r_min - r) / tc.v2  # negative when already within reach
    tau2 = np.maximum(0.0, slack)
    tau3 = np.maximum(0.0, slack + receiver_wait)

    if periodic:
        first_slot = broadcast_interval * (1.0 - u[:, col])
        second_slot = broadcast_interval * (1.0 - u[:, col + 1])
        tau1 = tau1 + first_slot
        tau2 = np.maximum(tau2, tau1)
        tau3 = tau3 + first_slot + second_slot

    return {"x2": x2, "r": r, "tau1": tau1, "tau2": tau2, "tau3": tau3}
