"""Variability metrics.

Paper definitions:

- **coefficient of variation** (section 3.3): 100 x (sample standard
  deviation / mean) -- the paper's estimate of space-variability
  magnitude;
- **range of variability** (section 4.2): (max - min) as a percentage of
  the mean -- "the higher the range of variability, the more likely one
  is to make an incorrect conclusion".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def sample_stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator)."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """100 x stddev / mean (percent)."""
    m = mean(values)
    if m == 0:
        raise ValueError("coefficient of variation undefined for zero mean")
    return 100.0 * sample_stddev(values) / m

def range_of_variability(values: Sequence[float]) -> float:
    """100 x (max - min) / mean (percent)."""
    m = mean(values)
    if m == 0:
        raise ValueError("range of variability undefined for zero mean")
    return 100.0 * (max(values) - min(values)) / m


@dataclass(frozen=True)
class VariabilitySummary:
    """Summary statistics for one sample of runs.

    ``n_timed_out`` counts member runs that hit the simulated-time cap
    before completing their transaction quota -- such runs understate
    true cost, so a non-zero count taints the sample and is surfaced in
    the rendered summary.
    """

    n: int
    mean: float
    stddev: float
    minimum: float
    maximum: float
    coefficient_of_variation: float
    range_of_variability: float
    n_timed_out: int = 0

    def percent(self, value: float) -> str:
        """A variability figure for display; one run has none to show."""
        return f"{value:.2f}%" if self.n >= 2 else "n/a"

    def __str__(self) -> str:
        text = (
            f"n={self.n} mean={self.mean:.4g} "
            f"sd={f'{self.stddev:.3g}' if self.n >= 2 else 'n/a'} "
            f"CoV={self.percent(self.coefficient_of_variation)} "
            f"range={self.percent(self.range_of_variability)}"
        )
        if self.n_timed_out:
            text += f" TIMED-OUT={self.n_timed_out}"
        return text


def summarize(values: Sequence[float], *, n_timed_out: int = 0) -> VariabilitySummary:
    """Build the full variability summary of a sample."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    return VariabilitySummary(
        n=len(values),
        mean=mean(values),
        stddev=sample_stddev(values),
        minimum=min(values),
        maximum=max(values),
        coefficient_of_variation=coefficient_of_variation(values),
        range_of_variability=range_of_variability(values),
        n_timed_out=n_timed_out,
    )
