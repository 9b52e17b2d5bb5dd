"""Simulation-budget allocation (paper section 5.2, "future work").

"Given a fixed simulation budget (time allowed for all simulations), a
tradeoff must be made between the length of each simulation and the
number of simulations required to maximize the confidence probability
(and minimize cold-start bias)."

This module implements that tradeoff.  Empirically (paper Table 4, and
this reproduction's own Table 4 bench), the coefficient of variation of
cycles-per-transaction falls roughly as a power law in the run length::

    CoV(L) ~= c * L**(-gamma)        (gamma ~= 0.5-0.9)

For a comparison experiment with expected relative difference ``d``, the
wrong-conclusion probability of an n-run-per-configuration experiment is
approximately ``Phi(-z)`` with ``z = d / (CoV(L) * sqrt(2 / n))``.  Under
a budget ``B = 2 * n * L`` (total simulated transactions across both
configurations), :func:`allocate_budget` picks the (n, L) grid point
minimizing that probability, subject to a minimum number of runs (the
statistics need degrees of freedom) and a minimum length (cold-start /
transaction-quantization bias).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.distributions import normal_sf
from repro.core.metrics import coefficient_of_variation


@dataclass(frozen=True)
class CovModel:
    """A fitted CoV-vs-run-length power law: CoV(L) = c * L**-gamma.

    CoV here is a *fraction* (0.03 == 3 %), not a percentage.
    """

    c: float
    gamma: float

    def cov(self, length: int) -> float:
        """Predicted coefficient of variation at run length ``length``."""
        if length <= 0:
            raise ValueError("length must be positive")
        return self.c * length ** (-self.gamma)


def fit_cov_model(
    lengths: Sequence[int], covs: Sequence[float]
) -> CovModel:
    """Fit the power law from pilot measurements.

    ``covs`` are fractions.  At least two (length, CoV) points are
    required; the fit is least squares in log-log space.
    """
    if len(lengths) != len(covs) or len(lengths) < 2:
        raise ValueError("need at least two (length, cov) pilot points")
    if any(l <= 0 for l in lengths) or any(c <= 0 for c in covs):
        raise ValueError("lengths and covs must be positive")
    xs = [math.log(l) for l in lengths]
    ys = [math.log(c) for c in covs]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("pilot lengths must differ")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    return CovModel(c=math.exp(intercept), gamma=-slope)


def fit_cov_model_from_samples(
    samples_by_length: dict[int, Sequence[float]]
) -> CovModel:
    """Fit directly from pilot run samples keyed by run length."""
    lengths = sorted(samples_by_length)
    covs = [
        coefficient_of_variation(list(samples_by_length[length])) / 100.0
        for length in lengths
    ]
    return fit_cov_model(lengths, covs)


@dataclass(frozen=True)
class BudgetPlan:
    """A chosen (runs, length) allocation and its predicted quality."""

    runs_per_configuration: int
    run_length: int
    total_transactions: int
    predicted_cov: float
    wrong_conclusion_probability: float

    def __str__(self) -> str:
        return (
            f"{self.runs_per_configuration} runs x {self.run_length} txns "
            f"per configuration (budget {self.total_transactions}); "
            f"predicted CoV {100 * self.predicted_cov:.2f}%, "
            f"wrong-conclusion p ~= {self.wrong_conclusion_probability:.4f}"
        )


def wrong_conclusion_probability(
    cov: float, relative_difference: float, n_runs: int
) -> float:
    """Normal-approximation wrong-conclusion probability.

    Probability that the sample-mean comparison of two configurations
    whose true means differ by ``relative_difference`` (fraction) comes
    out reversed, when each sample has ``n_runs`` runs with coefficient
    of variation ``cov`` (fraction).
    """
    if cov <= 0:
        return 0.0
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    z = relative_difference / (cov * math.sqrt(2.0 / n_runs))
    return normal_sf(z)


def allocate_budget(
    model: CovModel,
    budget_transactions: int,
    expected_difference: float,
    *,
    min_runs: int = 3,
    min_length: int = 50,
    length_granularity: int = 50,
) -> BudgetPlan:
    """Choose (runs, length) under a total simulated-transaction budget.

    ``budget_transactions`` is the total across *both* configurations;
    ``expected_difference`` the anticipated relative performance gap
    (e.g. 0.04 for 4 %).  Scans run lengths on a grid and picks the
    allocation minimizing the predicted wrong-conclusion probability;
    ties break toward more runs (better-behaved statistics).
    """
    if budget_transactions < 2 * min_runs * min_length:
        raise ValueError(
            f"budget {budget_transactions} cannot afford {min_runs} runs of "
            f"{min_length} transactions for two configurations"
        )
    if expected_difference <= 0:
        raise ValueError("expected_difference must be positive")

    best: BudgetPlan | None = None
    length = min_length
    while True:
        n_runs = budget_transactions // (2 * length)
        if n_runs < min_runs:
            break
        cov = model.cov(length)
        p_wrong = wrong_conclusion_probability(cov, expected_difference, n_runs)
        plan = BudgetPlan(
            runs_per_configuration=n_runs,
            run_length=length,
            total_transactions=budget_transactions,
            predicted_cov=cov,
            wrong_conclusion_probability=p_wrong,
        )
        if (
            best is None
            or p_wrong < best.wrong_conclusion_probability
            or (
                p_wrong == best.wrong_conclusion_probability
                and n_runs > best.runs_per_configuration
            )
        ):
            best = plan
        length += length_granularity
    assert best is not None  # guaranteed by the budget check above
    return best
