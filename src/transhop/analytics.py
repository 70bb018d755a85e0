"""Closed-form transmission-time statistics for transversal-hop messaging.

The message path has three stages: a first hop onto an oncoming relay
(completed at tau1), transport by the relay until its broadcasts reach the
destination region (tau2), and a second hop onto the first suitably placed
receiver (tau3).  Equipped vehicles in either direction are assumed to be
Poisson-distributed along the road with constant speeds, which makes all
three stage distributions exponential-family closed forms.

Coordinates are source-relative: the message is created at position 0, the
destination region is everything at or below -r_min.
"""

import math

import numpy as np

from .params import CommParams, TrafficConditions

# Relative rate difference below which the two-exponential delivery mixture
# collapses to its confluent limit.
DEGENERACY_RTOL = 1e-9

CURVE_QUANTITIES = ("P1", "P2", "P3", "P3dist")


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def first_hop_cdf(tau, tc: TrafficConditions, cp: CommParams):
    """Probability that the message has reached some relay by time tau.

    Source and candidate relays close in on each other at v1 + v2, so the
    road length scanned for a relay by time tau is 2r + (v1 + v2) tau.

    Args:
        tau: time since message creation (s), >= 0, scalar or array.
        tc: traffic conditions.
        cp: radio geometry; only the broadcast range r enters.
    """
    taus, scalar = _as_array(tau)
    if np.any(taus < 0.0):
        raise ValueError("tau must be non-negative")
    out = -np.expm1(-tc.lambda2 * (2.0 * cp.r + (tc.v1 + tc.v2) * taus))
    return _ret(out, scalar)


def availability_cdf(tau, tc: TrafficConditions, cp: CommParams):
    """Probability that the relayed message reaches the destination region by tau.

    The relay becomes useful once it is within broadcast range of positions
    at or below -r_min, i.e. once it has reached -r_min + r.  Only the relay
    side of the problem enters: the result is independent of v1 and lambda1.
    Exactly zero below the kinematic limit tau_min = (r_min - 2r) / v2.

    Deterministic range only; a range-averaged variant of this intermediate
    stage is deliberately not offered.
    """
    taus, scalar = _as_array(tau)
    arg = tc.lambda2 * (2.0 * cp.r + tc.v2 * taus - cp.r_min)
    out = np.where(arg > 0.0, -np.expm1(-np.maximum(arg, 0.0)), 0.0)
    return _ret(out, scalar)


def delivery_cdf(tau, tc: TrafficConditions, cp: CommParams):
    """Probability that the message is delivered in the destination region by tau.

    Convolution of the availability stage with the exponential waiting time
    for the first receiver, evaluated in closed form.  With
    x = v2 tau - r_min + 2r and eps = lambda_tilde1 - lambda2 the curve is

        1 - exp(-lambda2 x) * (1 + lambda2 * (1 - exp(-eps x)) / eps)   (x > 0)

    computed in a form that stays accurate for eps of either sign and for
    eps -> 0.  When |eps| is below DEGENERACY_RTOL relative to the larger
    rate, the confluent limit 1 - (1 + lambda2 x) exp(-lambda2 x) is used.

    Deterministic range r; delivery_cdf_distributed is the random-range curve.
    """
    taus, scalar = _as_array(tau)
    lam2 = tc.lambda2
    lam1e = tc.lambda_tilde1
    eps = lam1e - lam2
    x = np.maximum(tc.v2 * taus - cp.r_min + 2.0 * cp.r, 0.0)
    decay = np.exp(-lam2 * x)
    if abs(eps) <= DEGENERACY_RTOL * max(lam1e, lam2):
        val = -np.expm1(-lam2 * x) - lam2 * x * decay
    else:
        growth = -np.expm1(-eps * x) / eps
        val = -np.expm1(-lam2 * x) - lam2 * growth * decay
    out = np.where(x > 0.0, np.clip(val, 0.0, 1.0), 0.0)
    return _ret(out, scalar)


def delivery_cdf_symmetric(tau, lam: float, v: float, cp: CommParams):
    """Delivery-time distribution when both directions look alike.

    For v1 = v2 = v and equal equipped densities lam the general curve
    factorizes into the square of the availability curve:

        (1 - exp(-lam (2r + v tau - r_min)))^2

    above the kinematic limit, zero below it.

    Args:
        lam: equipped-vehicle density common to both directions (1/m).
        v: speed common to both directions (m/s).
    """
    taus, scalar = _as_array(tau)
    arg = lam * (2.0 * cp.r + v * taus - cp.r_min)
    base = -np.expm1(-np.maximum(arg, 0.0))
    out = np.where(arg > 0.0, base * base, 0.0)
    return _ret(out, scalar)


def delivery_cdf_distributed(tau, tc: TrafficConditions, cp: CommParams):
    """Delivery-time distribution with per-message exponential broadcast ranges.

    One range value is drawn per message with mean cp.r (rate
    lambda_r = 1 / cp.r) and reused for both hops, so the result is the
    range-density-weighted average of delivery_cdf, evaluated in closed
    form.  When |lambda_tilde1 - lambda2| is below DEGENERACY_RTOL relative
    to the larger rate, the bracket takes its limit
    1 - w exp(lambda2 d) (1 + 2 lambda2 / (lambda_r + 2 lambda2) - lambda2 d),
    with d = r_min - v2 tau - 2 r0 and w = lambda_r / (lambda_r + 2 lambda2).
    """
    lam_r = 1.0 / cp.r
    taus, scalar = _as_array(tau)
    lam2 = tc.lambda2
    lam1e = tc.lambda_tilde1
    eps = lam1e - lam2
    shortfall = cp.r_min - tc.v2 * taus  # ground still missing at range -> 0
    r0 = np.maximum(0.0, 0.5 * shortfall)
    # Combined exponents: for r0 > 0 they cancel exactly, avoiding overflow of
    # the individual factors.
    d = shortfall - 2.0 * r0
    e1 = np.exp(lam2 * d)
    w1 = lam_r / (lam_r + 2.0 * lam2)
    if abs(eps) <= DEGENERACY_RTOL * max(lam1e, lam2):
        bracket = 1.0 - w1 * e1 * (1.0 + 2.0 * lam2 / (lam_r + 2.0 * lam2) - lam2 * d)
    else:
        e2 = np.exp(lam1e * d)
        w2 = lam_r / (lam_r + 2.0 * lam1e)
        bracket = 1.0 - (lam1e / eps) * w1 * e1 + (lam2 / eps) * w2 * e2
    out = np.clip(np.exp(-lam_r * r0) * bracket, 0.0, 1.0)
    return _ret(out, scalar)


def delivery_time_quantile(q: float, lam: float, v: float, cp: CommParams) -> float:
    """Inverse of the symmetric delivery-time distribution.

    Solves delivery_cdf_symmetric(tau) = q for tau:

        tau = (r_min - 2r) / v - ln(1 - sqrt(q)) / (lam v)

    Args:
        q: probability level, strictly inside (0, 1).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    if lam <= 0.0:
        raise ValueError("equipped density must be positive")
    return (cp.r_min - 2.0 * cp.r) / v - math.log1p(-math.sqrt(q)) / (lam * v)


def mean_availability_time(lam: float, v: float, cp: CommParams) -> float:
    """Expected time until the relayed message reaches the destination region.

    Symmetric conditions: (r_min - 2r) / v + 1 / (lam v).
    """
    if lam <= 0.0:
        raise ValueError("expectation diverges for zero equipped density")
    return (cp.r_min - 2.0 * cp.r) / v + 1.0 / (lam * v)


def mean_delivery_time(lam: float, v: float, cp: CommParams) -> float:
    """Expected delivery time under symmetric conditions.

    Adds the mean receiver wait 1 / (2 lam v) on top of the availability
    stage: (r_min - 2r) / v + 3 / (2 lam v).
    """
    if lam <= 0.0:
        raise ValueError("expectation diverges for zero equipped density")
    return (cp.r_min - 2.0 * cp.r) / v + 1.5 / (lam * v)


def info_speed(lam: float, v: float, cp: CommParams) -> float:
    """Average upstream propagation speed of a message (m/s).

    Distance r_min divided by the mean delivery time; grows with lam towards
    the limit v r_min / (r_min - 2r) set by pure relay transport.
    """
    return cp.r_min / mean_delivery_time(lam, v, cp)


def cdf_function(quantity: str, tc: TrafficConditions, cp: CommParams):
    """Return the cumulative curve for one of P1 | P2 | P3 | P3dist as a callable."""
    if quantity == "P1":
        return lambda tau: first_hop_cdf(tau, tc, cp)
    if quantity == "P2":
        return lambda tau: availability_cdf(tau, tc, cp)
    if quantity == "P3":
        return lambda tau: delivery_cdf(tau, tc, cp)
    if quantity == "P3dist":
        return lambda tau: delivery_cdf_distributed(tau, tc, cp)
    raise ValueError(f"unknown quantity {quantity!r}, expected one of {CURVE_QUANTITIES}")


def stage_cdfs(tc: TrafficConditions, cp: CommParams) -> dict:
    """Deterministic-range curves of the three stage times, keyed like the samples."""
    return {
        "tau1": cdf_function("P1", tc, cp),
        "tau2": cdf_function("P2", tc, cp),
        "tau3": cdf_function("P3", tc, cp),
    }
