"""Hypothesis testing (paper section 5.1.2).

To conclude that configuration B outperforms configuration A, test the
hypothesis H0 that the true means are equal against the one-sided
alternative.  With equal sample sizes n and unknown variances, the paper
uses the statistic

    t = (ybar_A - ybar_B) / sqrt(s_A^2/n + s_B^2/n)

against the t-distribution with 2n-2 degrees of freedom.  Rejecting H0 at
significance level alpha bounds the wrong-conclusion probability by
alpha (the type I error).

``runs_needed`` reproduces the paper's Table 5: the minimum number of
runs per configuration at which the test rejects H0 at each significance
level, found by evaluating the statistic on growing prefixes of the
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.distributions import t_sf
from repro.core.metrics import mean, sample_stddev

#: the significance levels of the paper's Table 5
TABLE5_LEVELS = (0.10, 0.05, 0.025, 0.01, 0.005)


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a two-sample comparison test."""

    statistic: float
    degrees_of_freedom: float
    p_value: float  # one-sided
    mean_a: float
    mean_b: float

    def rejects_at(self, alpha: float) -> bool:
        """Whether H0 (equal means) is rejected at significance alpha."""
        return self.p_value < alpha

    @property
    def wrong_conclusion_bound(self) -> float:
        """The smallest bound this test places on the wrong-conclusion
        probability (the one-sided p-value itself)."""
        return self.p_value


def two_sample_t_test(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    *,
    welch: bool = False,
) -> TTestResult:
    """One-sided test of H0: mean_a == mean_b vs H1: mean_a > mean_b.

    Orient the samples so the alternative of interest is "A's metric is
    larger" (e.g. A = the configuration expected to be slower, with
    cycles per transaction as the metric).  ``welch=True`` uses the
    Welch-Satterthwaite degrees of freedom instead of the paper's 2n-2.
    """
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a < 2 or n_b < 2:
        raise ValueError("both samples need at least two runs")
    mean_a, mean_b = mean(sample_a), mean(sample_b)
    var_a = sample_stddev(sample_a) ** 2
    var_b = sample_stddev(sample_b) ** 2
    se = math.sqrt(var_a / n_a + var_b / n_b)
    if se == 0:
        raise ValueError("zero variance in both samples; test undefined")
    statistic = (mean_a - mean_b) / se
    if welch:
        numerator = (var_a / n_a + var_b / n_b) ** 2
        denominator = (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
        df = numerator / denominator
    else:
        df = n_a + n_b - 2
    p_value = t_sf(statistic, df)
    return TTestResult(
        statistic=statistic,
        degrees_of_freedom=df,
        p_value=p_value,
        mean_a=mean_a,
        mean_b=mean_b,
    )


def runs_needed(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    significance_levels: Sequence[float] = TABLE5_LEVELS,
) -> dict[float, int | None]:
    """Minimum runs per configuration to reject H0 at each level.

    Evaluates the test statistic on the first n observations of both
    samples for growing n (the paper's Table 5 procedure) and records the
    smallest n that rejects; None when even the full samples do not.
    """
    max_n = min(len(sample_a), len(sample_b))
    needed: dict[float, int | None] = {level: None for level in significance_levels}
    for n in range(2, max_n + 1):
        result = two_sample_t_test(sample_a[:n], sample_b[:n])
        for level in significance_levels:
            if needed[level] is None and result.rejects_at(level):
                needed[level] = n
    return needed
