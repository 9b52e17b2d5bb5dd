"""The five distribution functions the paper's methodology needs (5.1).

Normal and Student-t quantiles and upper tails and the F upper tail, on
the standard library alone: the runtime imports nothing third-party
(DESIGN section 19; ``tests/`` hold them to a reference library).  Degrees
of freedom are real (Welch, Satterthwaite); bad arguments are ValueErrors.
"""

from __future__ import annotations

import math
from statistics import NormalDist

#: from this many observations up the paper uses the normal deviate, not t
NORMAL_APPROXIMATION_N = 50
_normal_inv_cdf = NormalDist().inv_cdf  # Wichura's AS241


def _nearer_tail(p: float) -> tuple[float, float]:
    """``p`` as (probability of the nearer tail, sign of the quantile);
    ``1 - p`` is exact for p >= 0.5, so no tail rounds away."""
    if not 0 <= p <= 1:  # also rejects NaN
        raise ValueError("probability must be in [0, 1]")
    return (p, -1.0) if p < 0.5 else (1 - p, 1.0)


def _check(*dfs: float, statistic: float = 0.0) -> None:
    if math.isnan(statistic):
        raise ValueError("statistic must be a number")
    if not all(0 < df < math.inf for df in dfs):
        raise ValueError("degrees of freedom must be positive and finite")


def normal_quantile(p: float) -> float:
    """z with P(Z <= z) = p."""
    tail, sign = _nearer_tail(p)
    return sign * (math.inf if tail == 0 else -_normal_inv_cdf(tail))


def normal_sf(z: float) -> float:
    """Upper tail P(Z > z) of the standard normal."""
    _check(statistic=z)
    return 0.5 * math.erfc(z / math.sqrt(2))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularised incomplete beta I_x(a, b); the caller supplies
    y = 1 - x so neither end loses digits."""
    if x <= 0 or y <= 0:
        return 0.0 if x <= 0 else 1.0
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast only below the mean
        return 1.0 - _betainc(b, a, y, x)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    log_front += a * math.log(x) + b * math.log(y)
    # modified Lentz evaluation of the continued fraction (Numerical Recipes 6.4)
    c, tiny = 1.0, 1e-300
    fraction = d = 1.0 / (1.0 - (a + b) * x / (a + 1) or tiny)
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for coefficient in (even, odd):
            d = 1.0 / (1.0 + coefficient * d or tiny)
            c = 1.0 + coefficient / c or tiny
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return math.exp(log_front) * fraction / a


def t_sf(t: float, df: float) -> float:
    """Upper tail P(T > t) of Student's t with ``df`` degrees of freedom."""
    _check(df, statistic=t)
    square = t * t
    tail = 0.5 * _betainc(df / 2, 0.5, df / (df + square), square / (df + square))
    return tail if t >= 0 else 1.0 - tail


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper tail P(F > f) of F on (``df1``, ``df2``) degrees of freedom."""
    _check(df1, df2, statistic=f)
    if f <= 0:
        return 1.0
    total = df2 + df1 * f
    return _betainc(df2 / 2, df1 / 2, df2 / total, df1 * f / total)


def t_quantile(p: float, df: float) -> float:
    """t with P(T <= t) = p: Newton on the log of the tail probability,
    seeded by the normal quantile (a lower bound: t has the heavier
    tails) and kept inside a bracket."""
    tail, sign = _nearer_tail(p)
    _check(df)
    t = low = -normal_quantile(tail)
    if tail == 0:
        return sign * t
    high, log_tail = math.inf, math.log(tail)
    log_scale = math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
    log_scale -= 0.5 * math.log(df * math.pi)  # of the density
    for _ in range(200):
        survival = t_sf(t, df)
        low, high = (t, high) if survival > tail else (low, t)
        moved = (low + high) / 2
        if survival > 0:
            log_survival = math.log(survival)
            log_density = log_scale - (df + 1) / 2 * math.log1p(t * t / df)
            newton = t + math.exp(log_survival - log_density) * (log_survival - log_tail)
            if low <= newton <= high:
                moved = newton
        previous, t = t, moved
        if abs(t - previous) <= 1e-10 * max(t, 1.0):  # quadratic: t is far closer
            break
    return sign * t


def critical_deviate(confidence: float, df: float = math.inf) -> float:
    """Two-sided critical deviate of a ``confidence`` interval on ``df``
    degrees of freedom: Student t below ``NORMAL_APPROXIMATION_N``
    observations (df + 1), the normal deviate from there up (paper 5.1.1)."""
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    upper = 1 - (1 - confidence) / 2
    if df + 1 >= NORMAL_APPROXIMATION_N:
        return normal_quantile(upper)
    return t_quantile(upper, df)  # where df <= 0 and NaN are rejected
