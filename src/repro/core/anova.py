"""One-way analysis of variance (paper section 5.2).

ANOVA separates *time* variability from *space* variability: take groups
of runs, each group started from a different checkpoint in the workload's
lifetime.  If the between-group variation is explainable by the
within-group (space) variation, one starting point suffices; if not --
the paper's finding for both OLTP and SPECjbb -- time variability is
significant and samples must span multiple starting points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.distributions import f_sf
from repro.core.metrics import mean


@dataclass(frozen=True)
class AnovaResult:
    """A one-way ANOVA decomposition."""

    ss_between: float
    ss_within: float
    df_between: int
    df_within: int
    f_statistic: float
    p_value: float

    @property
    def ms_between(self) -> float:
        """Mean square between groups."""
        return self.ss_between / self.df_between

    @property
    def ms_within(self) -> float:
        """Mean square within groups."""
        return self.ss_within / self.df_within

    def significant_at(self, alpha: float) -> bool:
        """Whether between-group variability is significant at alpha.

        True means the groups' averages genuinely differ -- i.e. time
        variability is present beyond what space variability explains.
        """
        return self.p_value < alpha


@dataclass(frozen=True)
class TwoWayAnovaResult:
    """A two-way (factor A x factor B, with replication) decomposition.

    The paper's section 5.2 suggests this for workload/system-configuration
    combinations: does the *configuration* change variability behaviour,
    beyond what checkpoint (time) and run (space) effects explain?
    """

    f_a: float
    p_a: float
    f_b: float
    p_b: float
    f_interaction: float
    p_interaction: float
    df_a: int
    df_b: int
    df_interaction: int
    df_within: int

    def significant_interaction_at(self, alpha: float) -> bool:
        """Whether the A x B interaction is significant -- e.g. whether a
        configuration's effect depends on the starting checkpoint."""
        return self.p_interaction < alpha


def two_way_anova(cells: Sequence[Sequence[Sequence[float]]]) -> TwoWayAnovaResult:
    """Balanced two-way ANOVA with replication.

    ``cells[i][j]`` holds the replicate runs for level i of factor A
    (e.g. system configuration) and level j of factor B (e.g. starting
    checkpoint).  All cells must hold the same number (>= 2) of runs.
    """
    a_levels = len(cells)
    if a_levels < 2:
        raise ValueError("factor A needs at least two levels")
    b_levels = len(cells[0])
    if b_levels < 2:
        raise ValueError("factor B needs at least two levels")
    if any(len(row) != b_levels for row in cells):
        raise ValueError("ragged factor-B levels")
    reps = len(cells[0][0])
    if reps < 2:
        raise ValueError("need at least two replicates per cell")
    if any(len(cell) != reps for row in cells for cell in row):
        raise ValueError("unbalanced design: all cells need equal replicates")

    grand = mean([v for row in cells for cell in row for v in cell])
    a_means = [mean([v for cell in row for v in cell]) for row in cells]
    b_means = [
        mean([v for row in cells for v in row[j]]) for j in range(b_levels)
    ]
    cell_means = [[mean(cell) for cell in row] for row in cells]

    n = a_levels * b_levels * reps
    ss_a = b_levels * reps * sum((m - grand) ** 2 for m in a_means)
    ss_b = a_levels * reps * sum((m - grand) ** 2 for m in b_means)
    ss_interaction = reps * sum(
        (cell_means[i][j] - a_means[i] - b_means[j] + grand) ** 2
        for i in range(a_levels)
        for j in range(b_levels)
    )
    ss_within = sum(
        (v - cell_means[i][j]) ** 2
        for i in range(a_levels)
        for j in range(b_levels)
        for v in cells[i][j]
    )
    df_a = a_levels - 1
    df_b = b_levels - 1
    df_interaction = df_a * df_b
    df_within = n - a_levels * b_levels

    def f_and_p(ss: float, df: int) -> tuple[float, float]:
        if ss_within == 0:
            return (float("inf") if ss > 0 else 0.0, 0.0 if ss > 0 else 1.0)
        f = (ss / df) / (ss_within / df_within)
        return f, f_sf(f, df, df_within)

    f_a, p_a = f_and_p(ss_a, df_a)
    f_b, p_b = f_and_p(ss_b, df_b)
    f_i, p_i = f_and_p(ss_interaction, df_interaction)
    return TwoWayAnovaResult(
        f_a=f_a,
        p_a=p_a,
        f_b=f_b,
        p_b=p_b,
        f_interaction=f_i,
        p_interaction=p_i,
        df_a=df_a,
        df_b=df_b,
        df_interaction=df_interaction,
        df_within=df_within,
    )


def one_way_anova(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """Run a one-way ANOVA over ``groups`` of run metrics.

    Each inner sequence holds the runs from one starting checkpoint.
    Requires at least two groups and at least two observations overall
    beyond the group count.
    """
    if len(groups) < 2:
        raise ValueError("ANOVA needs at least two groups")
    if any(not group for group in groups):
        raise ValueError("ANOVA groups must be non-empty")
    total_n = sum(len(group) for group in groups)
    k = len(groups)
    if total_n - k < 1:
        raise ValueError("not enough observations for within-group variance")

    grand = mean([value for group in groups for value in group])
    ss_between = sum(len(g) * (mean(g) - grand) ** 2 for g in groups)
    ss_within = sum(
        (value - mean(group)) ** 2 for group in groups for value in group
    )
    df_between = k - 1
    df_within = total_n - k
    if ss_within == 0:
        # Degenerate: no within-group variation at all; any between-group
        # difference is infinitely significant.
        f_statistic = float("inf") if ss_between > 0 else 0.0
        p_value = 0.0 if ss_between > 0 else 1.0
    else:
        f_statistic = (ss_between / df_between) / (ss_within / df_within)
        p_value = f_sf(f_statistic, df_between, df_within)
    return AnovaResult(
        ss_between=ss_between,
        ss_within=ss_within,
        df_between=df_between,
        df_within=df_within,
        f_statistic=f_statistic,
        p_value=p_value,
    )
