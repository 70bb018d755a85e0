"""Empirical-distribution utilities and analytic/empirical comparison.

Everything here treats the analytic side as an opaque CDF callable, so the
same report machinery serves the Monte Carlo samples and the traffic-level
measurements without caring where either came from.
"""

import math
from dataclasses import dataclass

import numpy as np

BLOCK = 1 << 16  # sorted samples scanned at a time by the comparison


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


def _window(dist: EmpiricalDistribution, upper_tau: float) -> int:
    """Number of samples at or below upper_tau; at least two, or refused."""
    k = int(np.searchsorted(dist.samples, upper_tau, side="right"))
    if k < 2:
        raise ValueError("fewer than two samples at or below the comparison bound")
    return k


def _scan(dist: EmpiricalDistribution, cdf, k: int, ks: bool = True):
    """KS distance between dist and the model cdf (None unless ks), and U
    over the first k order statistics (None for k = 0), in one pass of
    BLOCK samples at a time.

    Each block evaluates the model once per distinct value in it.  A run of
    ties cut by a block edge is evaluated in both blocks against its global
    bounds, which leaves the supremum unchanged.  Without ks the pass stops
    after the block that holds the k-th order statistic.  U's squared terms
    go into one k-long buffer summed once, so U is the same float as a
    whole-array sum.
    """
    s, n = dist.samples, dist.n
    if k:
        terms = np.arange(1, k + 1, dtype=float)
        terms /= n  # observed cumulative i / n at the i-th order statistic
        terms -= terms.mean()
        np.square(terms, out=terms)
        denom = float(np.sum(terms))  # > 0: the i / n are distinct
    gaps = []
    for lo in range(0, n if ks else k, BLOCK):
        block = s[lo : lo + BLOCK]
        hi = lo + block.size
        # the block's runs of ties are s[cut[j]:cut[j + 1]]
        cut = np.concatenate(([lo], lo + 1 + np.flatnonzero(block[1:] != block[:-1]), [hi]))
        f = np.asarray(cdf(s[cut[:-1]]), dtype=float)
        if ks:
            # the empirical CDF just below and at each distinct value
            bounds = cut.copy()
            bounds[0] = np.searchsorted(s, s[lo])
            bounds[-1] = np.searchsorted(s, s[hi - 1], side="right")
            below = np.abs(f - bounds[:-1] / n)
            if bounds[0] == 0 and s[0] == 0.0:
                below[0] = 0.0  # the model's left limit at zero is zero
            gaps += [np.abs(f - bounds[1:] / n).max(), below.max()]
        if lo < k:
            x = np.arange(lo + 1, min(hi, k) + 1, dtype=float)
            x /= n
            x -= np.repeat(f, np.diff(cut))[: x.size]
            np.square(x, out=terms[lo : lo + x.size])
    ks_value = float(np.max(gaps)) if ks else None
    return ks_value, (float(np.sum(terms) / denom) if k else None)


def ks_distance(dist: EmpiricalDistribution, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between the sample and a model CDF.

    Evaluates both one-sided gaps at every jump of the empirical step
    function, which is where the supremum of |F_n - F| is attained.  Ties
    are merged so the statistic stays correct for distributions with a point
    mass, e.g. hop times that are exactly zero because the relay is already
    in range.  The quantities compared here are non-negative times, so the
    model's left limit at zero is taken as zero.
    """
    return _scan(dist, cdf, 0)[0]


def uncertainty_measure(dist: EmpiricalDistribution, cdf, upper_tau: float) -> float:
    """Cumulative-curve mismatch between the sample and a model CDF.

    Uses the samples at or below upper_tau (in practice the model's 95%
    quantile, so the noisy extreme tail does not dominate).  The observed
    cumulative value at the i-th order statistic is x_i = i / n with n the
    full sample count, matched against the model value F_i there:
    U = sum (x_i - F_i)^2 / sum (x_i - mean x)^2 over the window, so 0 means
    exact agreement and the denominator normalizes out the window's scale.
    """
    return _scan(dist, cdf, _window(dist, upper_tau), ks=False)[1]


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
    blocked scan serve U, KS and the quantiles."""
    dist = EmpiricalDistribution.from_samples(values)
    q95 = invert_cdf(cdf, 0.95)
    ks, u = _scan(dist, cdf, _window(dist, q95))
    return {
        "n": dist.n,
        "U": u,
        "KS": ks,
        "model_q95": q95,
        "quantiles": {f"{q:g}": quantile(dist, q) for q in quantile_levels},
        "model_quantiles": {
            f"{q:g}": q95 if q == 0.95 else invert_cdf(cdf, q) for q in quantile_levels
        },
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
