"""Empirical-distribution utilities and analytic/empirical comparison.

Everything here treats the analytic side as an opaque CDF callable, so the
same report machinery serves the Monte Carlo samples and the traffic-level
measurements without caring where either came from.
"""

import math
from dataclasses import dataclass

import numpy as np


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
    """Linear-interpolation sample quantile(s) for q in [0, 1].

    numpy's default method read straight off the sorted samples: the order
    statistics either side of (n - 1) q, mixed with numpy's own two-branch
    interpolation, so the value is bit-identical to np.quantile without its
    partition of a fresh copy per call.
    """
    qs = np.asarray(q, dtype=float)
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("quantile levels must lie in [0, 1]")
    s = dist.samples
    h = (dist.n - 1) * qs
    lo = np.floor(h)
    t = h - lo
    lo = lo.astype(np.intp)
    a, b = s[lo], s[np.minimum(lo + 1, dist.n - 1)]
    d = b - a
    vals = np.where(t >= 0.5, b - d * (1.0 - t), a + d * t)
    if np.isscalar(q) or qs.ndim == 0:
        return float(vals)
    return vals


def median(dist: EmpiricalDistribution) -> float:
    """Sample median read off the sorted samples, bit-identical to np.median:
    the middle order statistic, or the mean of the two middle ones."""
    s, m = dist.samples, dist.n // 2
    if dist.n % 2:
        return float(s[m])
    return float((s[m - 1] + s[m]) / 2)


def _runs(s: np.ndarray) -> np.ndarray:
    """Run boundaries of the sorted array s: run j is s[edges[j]:edges[j + 1]].

    One comparison pass over neighbours, so the distinct values come out
    without sorting again.
    """
    new = np.empty(s.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:-1])
    return np.flatnonzero(new)


def _ks(s: np.ndarray, edges: np.ndarray, f: np.ndarray) -> float:
    """Largest one-sided gap between the empirical step function of s and
    the model values f at its distinct values s[edges[:-1]]."""
    n = s.size
    gap = edges[1:] / n  # empirical CDF at each distinct value
    np.subtract(f, gap, out=gap)
    np.abs(gap, out=gap)
    gap_at = gap.max()
    np.divide(edges[:-1], n, out=gap)  # ... and just below it
    np.subtract(f, gap, out=gap)
    if s[0] == 0.0:
        gap[0] = 0.0
    np.abs(gap, out=gap)
    return float(max(gap_at, gap.max()))


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
    edges = _runs(s)
    return _ks(s, edges, np.asarray(cdf(s[edges[:-1]]), dtype=float))


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


def _window(dist: EmpiricalDistribution, upper_tau: float) -> int:
    """Number of samples at or below upper_tau; at least two, or refused."""
    k = int(np.searchsorted(dist.samples, upper_tau, side="right"))
    if k < 2:
        raise ValueError("fewer than two samples at or below the comparison bound")
    return k


def _uncertainty(dist: EmpiricalDistribution, xhat: np.ndarray) -> float:
    """Cumulative-curve mismatch of the first xhat.size order statistics,
    given the model CDF at each of them."""
    x = np.arange(1, xhat.size + 1, dtype=float) / dist.n
    return uncertainty_from_cumulatives(x, xhat)


def uncertainty_measure(dist: EmpiricalDistribution, cdf, upper_tau: float) -> float:
    """Cumulative-curve mismatch between the sample and a model CDF.

    Uses the samples at or below upper_tau (in practice the model's 95%
    quantile, so the noisy extreme tail does not dominate).  The observed
    cumulative value at the i-th order statistic is i / n with n the full
    sample count, matched against the model CDF at that point.
    """
    k = _window(dist, upper_tau)
    return _uncertainty(dist, np.asarray(cdf(dist.samples[:k]), dtype=float))


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float,
            xtol: float, rtol: float) -> float:
    """Root of f in [xpre, xcur] by Brent's method, given f at both ends.

    A line-by-line port of SciPy's brentq (optimize/Zeros/brentq.c): the
    same float operations in the same order, so it returns the same float.
    Like brentq it refuses a NaN value of f and gives up after 100
    iterations.
    """
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:.6g} is NaN")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # f is neither zero nor NaN here, so `< 0.0` reads as C's signbit
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur:.6g} is NaN")
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur}")


def invert_cdf(cdf, q: float, lo: float = 0.0) -> float:
    """Smallest tau at or above lo with cdf(tau) >= q, by bracketed root find.

    The CDF must be non-decreasing and reach q eventually.  Atoms are fine:
    if cdf(lo) already meets q the bracket degenerates and lo is returned.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly between 0 and 1")
    f_lo = float(cdf(lo))
    if f_lo >= q:
        return float(lo)
    hi = max(1.0, 2.0 * abs(lo))
    for _ in range(200):
        f_hi = float(cdf(hi))
        if f_hi >= q:
            break
        hi *= 2.0
    else:
        raise ValueError("CDF never reaches the requested level")
    return _brentq(
        lambda t: float(cdf(t)) - q, float(lo), hi, f_lo - q, f_hi - q, xtol=1e-9, rtol=1e-13
    )


def _compare(values, cdf, quantile_levels) -> dict:
    """One comparison_report entry: a single sort of the samples and a single
    model evaluation per distinct value serve U, KS and the quantiles."""
    dist = EmpiricalDistribution.from_samples(values)
    s = dist.samples
    q95 = invert_cdf(cdf, 0.95)
    k = _window(dist, q95)
    edges = _runs(s)
    f = np.asarray(cdf(s[edges[:-1]]), dtype=float)
    ks = _ks(s, edges, f)
    # the window ends on a run boundary, so U's model values are f repeated
    # over the runs before it
    j = int(np.searchsorted(edges, k))
    xhat = np.repeat(f[:j], np.diff(edges[: j + 1]))
    del edges, f  # free the per-run arrays before U builds its own
    return {
        "n": dist.n,
        "U": _uncertainty(dist, xhat),
        "KS": ks,
        "model_q95": q95,
        "quantiles": {f"{q:g}": quantile(dist, q) for q in quantile_levels},
        "model_quantiles": {f"{q:g}": invert_cdf(cdf, q) for q in quantile_levels},
    }


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
        entry = _compare(values, cdfs[name], quantile_levels)
        if not math.isfinite(entry["U"]):
            raise ValueError(f"non-finite uncertainty for {name}")
        report[name] = entry
    return report
