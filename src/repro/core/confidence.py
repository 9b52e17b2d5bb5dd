"""Confidence intervals and sample-size estimation (paper section 5.1.1).

The confidence interval for the mean of a normally distributed population
is ``ybar +/- t * s / sqrt(n)``, with ``t`` from the Student
t-distribution with n-1 degrees of freedom for n < 50 and from the normal
distribution otherwise (the paper's rule).

Non-overlapping confidence intervals at probability ``p`` bound the wrong
conclusion probability by ``1 - p`` (paper footnote 4).

Sample-size estimation (Cochran): to limit the relative error of the
estimated mean to ``r`` with confidence deviate ``t``,

    n = (t * S / (r * Y))^2

using prior estimates of the population mean Y and standard deviation S
(the coefficient of variation S/Y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.distributions import NORMAL_APPROXIMATION_N, critical_deviate
from repro.core.metrics import mean, sample_stddev


def critical_t(confidence: float, n: int) -> float:
    """Two-sided critical deviate for the given confidence and sample size."""
    return critical_deviate(confidence, n - 1)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A confidence interval for a population mean."""

    mean: float
    lower: float
    upper: float
    confidence: float
    n: int

    @property
    def half_width(self) -> float:
        """Half the interval width (the +/- term)."""
        return (self.upper - self.lower) / 2

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return (
            f"[{self.lower:.4g}, {self.upper:.4g}] "
            f"(mean {self.mean:.4g}, {100 * self.confidence:.0f}% CI, n={self.n})"
        )


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """The confidence interval of a sample's mean."""
    n = len(values)
    if n < 2:
        raise ValueError("confidence interval needs at least two runs")
    m = mean(values)
    s = sample_stddev(values)
    margin = critical_t(confidence, n) * s / math.sqrt(n)
    return ConfidenceInterval(
        mean=m, lower=m - margin, upper=m + margin, confidence=confidence, n=n
    )


def intervals_overlap(a: ConfidenceInterval, b: ConfidenceInterval) -> bool:
    """Whether two intervals overlap.

    Non-overlap at confidence ``p`` bounds the wrong-conclusion
    probability by ``1 - p``; overlap means the comparison is not
    statistically significant at that level.
    """
    return a.lower <= b.upper and b.lower <= a.upper


def estimate_sample_size(
    coefficient_of_variation: float,
    relative_error: float,
    confidence: float = 0.95,
) -> int:
    """Runs needed to bound the mean's relative error (paper 5.1.1).

    ``coefficient_of_variation`` is the prior S/Y estimate (e.g. 0.09 for
    the paper's 50-transaction OLTP runs), ``relative_error`` the target
    r.  The paper's worked example -- r=4 %, 95 % confidence, S/Y=9 % --
    yields (2 x 0.09 / 0.04)^2 ~= 20 runs.

    In comparison experiments, choose r less than half the expected
    performance difference so the configurations' intervals can separate.
    """
    if coefficient_of_variation <= 0:
        raise ValueError("coefficient of variation must be positive")
    if relative_error <= 0:
        raise ValueError("relative error must be positive")
    deviate = critical_deviate(confidence)  # the normal one: Cochran's convention
    return math.ceil((deviate * coefficient_of_variation / relative_error) ** 2)
