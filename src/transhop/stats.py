"""Empirical-distribution utilities and analytic/empirical comparison.

Everything here treats the analytic side as an opaque CDF callable, so the
same report machinery serves the Monte Carlo samples and the traffic-level
measurements without caring where either came from.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted, finite sample set."""

    samples: np.ndarray

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("empty sample set")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        return cls(samples=np.sort(arr))

    @property
    def n(self) -> int:
        return int(self.samples.size)


def quantile(dist: EmpiricalDistribution, q):
    """Linear-interpolation sample quantile(s) for q in [0, 1]."""
    qs = np.asarray(q, dtype=float)
    if np.any(qs < 0.0) or np.any(qs > 1.0):
        raise ValueError("quantile levels must lie in [0, 1]")
    vals = np.quantile(dist.samples, qs)
    if np.isscalar(q) or qs.ndim == 0:
        return float(vals)
    return vals


def ks_distance(dist: EmpiricalDistribution, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between the sample and a model CDF.

    Evaluates both one-sided gaps at every jump of the empirical step
    function, which is where the supremum of |F_n - F| is attained.  Ties
    are merged so the statistic stays correct for distributions with a point
    mass, e.g. hop times that are exactly zero because the relay is already
    in range.  The quantities compared here are non-negative times, so the
    model's left limit at zero is taken as zero.
    """
    s = dist.samples
    n = dist.n
    u, counts = np.unique(s, return_counts=True)
    c = np.cumsum(counts)
    f = np.asarray(cdf(u), dtype=float)
    gap_at = np.abs(f - c / n)
    f_left = f.copy()
    if u[0] == 0.0:
        f_left[0] = 0.0
    gap_below = np.abs(f_left - (c - counts) / n)
    return float(max(gap_at.max(), gap_below.max()))


def uncertainty_from_cumulatives(observed, reference) -> float:
    """Normalized squared error between two cumulative curves.

    Sum of squared deviations between the observed cumulative values and the
    reference curve, divided by the observed curve's total sum of squares
    about its mean.  0 means exact agreement; the denominator normalizes out
    the arbitrary scale of the comparison window.
    """
    x = np.asarray(observed, dtype=float)
    xhat = np.asarray(reference, dtype=float)
    if x.shape != xhat.shape:
        raise ValueError("observed and reference must have identical shapes")
    if x.size < 2:
        raise ValueError("need at least two points to compare curves")
    denom = float(np.sum((x - x.mean()) ** 2))
    if denom <= 0.0:
        raise ValueError("observed cumulative values are all equal")
    return float(np.sum((x - xhat) ** 2) / denom)


def uncertainty_measure(dist: EmpiricalDistribution, cdf, upper_tau: float) -> float:
    """Cumulative-curve mismatch between the sample and a model CDF.

    Uses the samples at or below upper_tau (in practice the model's 95%
    quantile, so the noisy extreme tail does not dominate).  The observed
    cumulative value at the i-th order statistic is i / n with n the full
    sample count, matched against the model CDF at that point.
    """
    s = dist.samples
    k = int(np.searchsorted(s, upper_tau, side="right"))
    if k < 2:
        raise ValueError("fewer than two samples at or below the comparison bound")
    t = s[:k]
    x = np.arange(1, k + 1, dtype=float) / dist.n
    xhat = np.asarray(cdf(t), dtype=float)
    return uncertainty_from_cumulatives(x, xhat)


def invert_cdf(cdf, q: float, lo: float = 0.0) -> float:
    """Smallest tau at or above lo with cdf(tau) >= q, by bracketed root find.

    The CDF must be non-decreasing and reach q eventually.  Atoms are fine:
    if cdf(lo) already meets q the bracket degenerates and lo is returned.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly between 0 and 1")
    if float(cdf(lo)) >= q:
        return float(lo)
    hi = max(1.0, 2.0 * abs(lo))
    for _ in range(200):
        if float(cdf(hi)) >= q:
            break
        hi *= 2.0
    else:
        raise ValueError("CDF never reaches the requested level")
    return float(brentq(lambda t: float(cdf(t)) - q, lo, hi, xtol=1e-9, rtol=1e-13))


def comparison_report(samples: dict, cdfs: dict, quantile_levels=(0.5, 0.9, 0.95)) -> dict:
    """Per-quantity comparison of sample sets against model CDFs.

    Args:
        samples: name -> array of observations.
        cdfs: name -> callable CDF; must cover every name in samples.
        quantile_levels: levels reported for both sides.

    Returns:
        name -> dict with n, U, KS, empirical and model quantiles.  U is
        computed over the window up to the model's 95% quantile.
    """
    report = {}
    for name, values in samples.items():
        cdf = cdfs[name]
        dist = EmpiricalDistribution.from_samples(values)
        q95 = invert_cdf(cdf, 0.95)
        entry = {
            "n": dist.n,
            "U": uncertainty_measure(dist, cdf, q95),
            "KS": ks_distance(dist, cdf),
            "model_q95": q95,
            "quantiles": {},
            "model_quantiles": {},
        }
        for q in quantile_levels:
            entry["quantiles"][f"{q:g}"] = quantile(dist, q)
            entry["model_quantiles"][f"{q:g}"] = invert_cdf(cdf, q)
        if not math.isfinite(entry["U"]):
            raise ValueError(f"non-finite uncertainty for {name}")
        report[name] = entry
    return report
