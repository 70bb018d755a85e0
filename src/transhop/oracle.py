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

* the range r is cp.r, or one exponential draw with mean cp.r per message;
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

from .params import CommParams, TrafficConditions

BLOCK = 1 << 16  # rows drawn and transformed at a time


def _exp_inverse_cdf(u: np.ndarray, rate: float) -> np.ndarray:
    # u in (0, 1]; -log(u) is then a clean Exp(1) draw with no log(0) risk.
    return -np.log(u) / rate


def sample_arrays(
    n: int,
    tc: TrafficConditions,
    cp: CommParams,
    rng_seed: int,
    broadcast_interval: float = 0.0,
    distributed: bool = False,
) -> dict:
    """Draw n message passages and return the stage times as arrays.

    The uniform draws are laid out one row per sample, so the first sample
    of a batch is identical to a single-sample batch with the same seed.
    Rows are drawn and transformed BLOCK at a time into the outputs, so the
    only whole-length arrays are the five returned.

    Args:
        broadcast_interval: 0 for continuous broadcasting.  A positive value
            models periodic broadcasting every broadcast_interval seconds:
            each hop waits for the sender's next broadcast slot, adding an
            independent U[0, interval) delay per hop.
        distributed: False for the range cp.r on every message; True to
            draw one exponential range with mean cp.r per message, shared
            by both of its hops.

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
    periodic = broadcast_interval > 0.0
    cols = 2 + (1 if distributed else 0) + (2 if periodic else 0)
    closing = tc.v1 + tc.v2

    rng = np.random.default_rng(rng_seed)
    out = {key: np.empty(n) for key in ("x2", "r", "tau1", "tau2", "tau3")}
    if not distributed:
        out["r"].fill(cp.r)
    for lo in range(0, n, BLOCK):
        # consecutive blocks of rows draw the same uniforms as one (n, cols) draw
        u = 1.0 - rng.random((min(BLOCK, n - lo), cols))  # each entry in (0, 1]
        x2, r, tau1, tau2, tau3 = (a[lo : lo + len(u)] for a in out.values())
        col = 0
        if distributed:
            r[:] = _exp_inverse_cdf(u[:, col], 1.0 / cp.r)
            col += 1
        x2[:] = -r + _exp_inverse_cdf(u[:, col], lam2)
        col += 1
        receiver_wait = _exp_inverse_cdf(u[:, col], lam1 * closing)
        col += 1

        np.maximum(0.0, (x2 - r) / closing, out=tau1)
        slack = (x2 + cp.r_min - r) / tc.v2  # negative when already within reach
        np.maximum(0.0, slack, out=tau2)
        np.maximum(0.0, slack + receiver_wait, out=tau3)

        if periodic:
            first_slot = broadcast_interval * (1.0 - u[:, col])
            tau1 += first_slot
            np.maximum(tau2, tau1, out=tau2)
            tau3 += first_slot
            tau3 += broadcast_interval * (1.0 - u[:, col + 1])

    return out
