"""Property-style tests for the statistics core.

``test_statistics.py`` pins the paper's worked examples; this module
checks the *laws* the functions must obey on arbitrary inputs --
closed-form agreement with scipy, monotonicity of interval widths in
confidence and sample size, antisymmetry of the two-sample test under
sample swap, and the [0, 1] range of the wrong-conclusion bound -- and holds the
stdlib-only distribution functions (``repro.core.distributions``) to
scipy, the oracle, beyond every domain the code reaches.  The
methodology chapters of the paper lean on exactly these properties (a CI
that failed to widen with confidence, say, would silently invalidate
every Figure 10-style conclusion).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.core.confidence import (
    NORMAL_APPROXIMATION_N,
    confidence_interval,
    critical_t,
    estimate_sample_size,
    intervals_overlap,
)
from repro.core.distributions import (
    critical_deviate,
    f_sf,
    normal_quantile,
    normal_sf,
    t_quantile,
    t_sf,
)
from repro.core.hypothesis import two_sample_t_test
from repro.core.livesample import stratified_confidence_interval

#: samples of well-behaved floats (no NaN/inf, bounded magnitude so
#: variance arithmetic stays in float range)
_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)

#: samples guaranteed to carry spread (distinct elements), so standard
#: errors are nonzero and test statistics are defined
_spread_values = _values.filter(lambda vs: max(vs) - min(vs) > 1e-6)

_confidences = st.floats(min_value=0.5, max_value=0.999)


class TestCriticalT:
    @given(confidence=_confidences, n=st.integers(min_value=2, max_value=200))
    def test_matches_scipy_closed_form(self, confidence, n):
        upper = 1 - (1 - confidence) / 2
        if n < NORMAL_APPROXIMATION_N:
            expected = scipy_stats.t.ppf(upper, df=n - 1)
        else:
            expected = scipy_stats.norm.ppf(upper)
        assert critical_t(confidence, n) == pytest.approx(float(expected))

    @given(confidence=_confidences, n=st.integers(min_value=2, max_value=200))
    def test_positive(self, confidence, n):
        assert critical_t(confidence, n) > 0

    @given(n=st.integers(min_value=2, max_value=200))
    def test_monotone_in_confidence(self, n):
        deviates = [critical_t(c, n) for c in (0.80, 0.90, 0.95, 0.99)]
        assert deviates == sorted(deviates)
        assert deviates[0] < deviates[-1]

    @given(confidence=_confidences)
    def test_t_dominates_normal_deviate(self, confidence):
        """Student t has heavier tails than the normal at every df, so the
        small-sample deviate always exceeds the large-sample one."""
        normal = critical_t(confidence, NORMAL_APPROXIMATION_N)
        for n in (2, 5, 10, 30, NORMAL_APPROXIMATION_N - 1):
            assert critical_t(confidence, n) > normal


class TestConfidenceIntervalProperties:
    @given(values=_values)
    def test_interval_brackets_mean_symmetrically(self, values):
        ci = confidence_interval(values, 0.95)
        assert ci.lower <= ci.mean <= ci.upper
        assert (ci.mean - ci.lower) == pytest.approx(
            ci.upper - ci.mean, rel=1e-9, abs=1e-9
        )
        assert ci.contains(ci.mean)

    @given(values=_spread_values)
    def test_widens_monotonically_with_confidence(self, values):
        widths = [
            confidence_interval(values, c).half_width
            for c in (0.80, 0.90, 0.95, 0.99)
        ]
        assert widths == sorted(widths)
        assert widths[0] < widths[-1]

    @given(values=_spread_values, k=st.integers(min_value=2, max_value=6))
    def test_shrinks_with_replicated_sample(self, values, k):
        """Replicating a sample k-fold keeps the stddev (asymptotically)
        but divides the standard error by ~sqrt(k): the interval must
        shrink.  This is Figure 10's more-runs-tighter-interval law."""
        small = confidence_interval(values, 0.95)
        large = confidence_interval(list(values) * k, 0.95)
        assert large.half_width < small.half_width

    @given(values=_spread_values, shift=st.floats(min_value=-1e5, max_value=1e5,
                                                  allow_nan=False))
    def test_translation_equivariance(self, values, shift):
        base = confidence_interval(values, 0.95)
        moved = confidence_interval([v + shift for v in values], 0.95)
        assert moved.half_width == pytest.approx(
            base.half_width, rel=1e-6, abs=1e-6
        )

    @given(values=_values)
    def test_interval_overlaps_itself(self, values):
        ci = confidence_interval(values, 0.95)
        assert intervals_overlap(ci, ci)

    @given(values=_spread_values)
    def test_disjoint_translates_do_not_overlap(self, values):
        ci = confidence_interval(values, 0.95)
        far = confidence_interval(
            [v + 10 * (ci.half_width + 1.0) + (max(values) - min(values))
             for v in values],
            0.95,
        )
        assert not intervals_overlap(ci, far)


class TestTTestProperties:
    @given(a=_spread_values, b=_spread_values)
    def test_antisymmetric_under_sample_swap(self, a, b):
        """Swapping the samples negates the statistic, and the one-sided
        p-values are complementary: p(a,b) + p(b,a) == 1."""
        forward = two_sample_t_test(a, b)
        backward = two_sample_t_test(b, a)
        assert forward.statistic == pytest.approx(
            -backward.statistic, rel=1e-9, abs=1e-9
        )
        assert forward.degrees_of_freedom == backward.degrees_of_freedom
        assert forward.p_value + backward.p_value == pytest.approx(1.0, abs=1e-9)

    @given(a=_spread_values, b=_spread_values)
    def test_wrong_conclusion_bound_in_unit_interval(self, a, b):
        result = two_sample_t_test(a, b)
        assert 0.0 <= result.wrong_conclusion_bound <= 1.0
        assert result.wrong_conclusion_bound == result.p_value

    @given(values=_spread_values)
    def test_identical_samples_never_reject(self, values):
        """A sample against itself has statistic 0 and p = 0.5: no
        significance level below 0.5 can reject."""
        result = two_sample_t_test(values, values)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(0.5, abs=1e-9)
        for alpha in (0.10, 0.05, 0.01):
            assert not result.rejects_at(alpha)

    @given(a=_spread_values, b=_spread_values)
    def test_welch_agrees_on_statistic_and_bounds_df(self, a, b):
        pooled = two_sample_t_test(a, b)
        welch = two_sample_t_test(a, b, welch=True)
        assert welch.statistic == pytest.approx(pooled.statistic, rel=1e-12)
        # Welch-Satterthwaite df never exceeds the equal-variance 2n-2 form
        # and is at least min(n_a, n_b) - 1.
        assert welch.degrees_of_freedom <= pooled.degrees_of_freedom + 1e-9
        assert welch.degrees_of_freedom >= min(len(a), len(b)) - 1 - 1e-9

    @given(a=_spread_values)
    def test_separated_samples_reject(self, a):
        """Shifting a copy of the sample far above the original must be
        detected: the one-sided test of 'A larger' rejects at 5%."""
        spread = max(a) - min(a)
        shifted = [v + 100 * (spread + 1.0) for v in a]
        result = two_sample_t_test(shifted, a)
        assert result.statistic > 0
        assert result.rejects_at(0.05)


class TestSampleSizeProperties:
    @given(
        cov=st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
        error=st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
        confidence=_confidences,
    )
    def test_matches_cochran_closed_form(self, cov, error, confidence):
        deviate = scipy_stats.norm.ppf(1 - (1 - confidence) / 2)
        expected = math.ceil((deviate * cov / error) ** 2)
        assert estimate_sample_size(cov, error, confidence) == expected

    @given(
        cov=st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
        error=st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
    )
    def test_at_least_one_run(self, cov, error):
        assert estimate_sample_size(cov, error) >= 1

    @given(cov=st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    def test_monotone_in_target_error(self, cov):
        """Halving the tolerated error must cost at least as many runs
        (quadratically more, in fact)."""
        sizes = [estimate_sample_size(cov, r) for r in (0.16, 0.08, 0.04, 0.02)]
        assert sizes == sorted(sizes)
        assert sizes[-1] >= 4 * sizes[0] - 4  # ~quadratic growth in 1/r

    @given(error=st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
    def test_monotone_in_variability(self, error):
        """Noisier workloads need more runs (the paper's Table 3 spread)."""
        sizes = [estimate_sample_size(c, error) for c in (0.02, 0.05, 0.1, 0.2)]
        assert sizes == sorted(sizes)

    def test_paper_worked_example(self):
        # r=4%, 95% confidence, CoV=9% => ~20 runs (paper 5.1.1).
        assert estimate_sample_size(0.09, 0.04, 0.95) == pytest.approx(20, abs=1)


# ---------------------------------------------------------------------------
# repro.core.distributions against scipy (DESIGN section 19)
# ---------------------------------------------------------------------------

#: integer and fractional degrees of freedom (Welch and Satterthwaite pass
#: the latter); the code reaches df <= 48 for intervals, 2n - 2 for tests
_dfs = st.one_of(
    st.integers(min_value=1, max_value=10**4),
    st.floats(min_value=1.0, max_value=1e4),
)
_probabilities = st.floats(min_value=1e-9, max_value=1 - 1e-9)
#: 1 - p is exact up here, so p and 1 - p name the same tail exactly
_upper_probabilities = st.floats(min_value=0.5, max_value=1 - 1e-9)
_statistics = st.floats(min_value=-100.0, max_value=100.0)


def _t_tolerance(df: float) -> float:
    """Agreement demanded of the t functions: lgamma's rounding grows
    with its argument, so the bound is looser above df = 200."""
    return 1e-10 if df <= 200 else 1e-8


class TestNormalAgainstScipy:
    @given(p=_probabilities)
    def test_quantile(self, p):
        assert normal_quantile(p) == pytest.approx(
            float(scipy_stats.norm.ppf(p)), rel=1e-12, abs=1e-15
        )

    @given(z=st.floats(min_value=-30.0, max_value=30.0))
    def test_tail(self, z):
        assert normal_sf(z) == pytest.approx(float(scipy_stats.norm.sf(z)), rel=1e-12)

    @given(p=_upper_probabilities)
    def test_quantile_symmetric(self, p):
        assert normal_quantile(p) == -normal_quantile(1 - p)

    @given(p=_probabilities)
    def test_quantile_inverts_tail(self, p):
        assert normal_sf(normal_quantile(p)) == pytest.approx(1 - p, rel=1e-9)

    def test_degenerate_ends(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.0) == -math.inf and normal_quantile(1.0) == math.inf
        assert normal_sf(0.0) == 0.5
        assert normal_sf(math.inf) == 0.0 and normal_sf(-math.inf) == 1.0


class TestStudentTAgainstScipy:
    @given(t=_statistics.filter(lambda t: t == 0 or abs(t) >= 1e-3), df=_dfs)
    def test_tail(self, t, df):
        assert t_sf(t, df) == pytest.approx(
            float(scipy_stats.t.sf(t, df)), rel=_t_tolerance(df), abs=1e-300
        )

    @given(t=st.floats(min_value=-1e-3, max_value=1e-3))
    def test_tail_next_to_zero_matches_the_closed_forms(self, t):
        """Where the oracle itself is off by up to 3e-9 (t.sf(1e-8, 1)):
        df = 1 is the Cauchy distribution, df = 2 is algebraic."""
        assert t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, rel=1e-14)
        assert t_sf(t, 2) == pytest.approx(0.5 - t / (2 * math.sqrt(2 + t * t)), rel=1e-14)

    @given(p=_probabilities, df=_dfs)
    def test_quantile(self, p, df):
        # abs: next to p = 0.5 the quantile is next to 0 and only its
        # absolute error is bounded (the tail there is 0.5 - epsilon)
        assert t_quantile(p, df) == pytest.approx(
            float(scipy_stats.t.ppf(p, df)), rel=_t_tolerance(df), abs=1e-12
        )

    @given(p=_upper_probabilities, df=_dfs)
    def test_quantile_symmetric(self, p, df):
        assert t_quantile(p, df) == -t_quantile(1 - p, df)

    @given(p=_probabilities, df=_dfs)
    def test_quantile_inverts_tail(self, p, df):
        assert t_sf(t_quantile(p, df), df) == pytest.approx(1 - p, rel=1e-8)

    @given(df=_dfs, a=_probabilities, b=_probabilities)
    def test_quantile_monotone_in_p(self, df, a, b):
        low, high = sorted((a, b))
        assert t_quantile(low, df) <= t_quantile(high, df) + 1e-9

    @given(p=st.floats(min_value=0.6, max_value=1 - 1e-9),
           df=st.floats(min_value=1.0, max_value=5e3))
    def test_heavier_tails_at_lower_df(self, p, df):
        """Fewer degrees of freedom mean a wider deviate and a fatter
        tail, and the normal is the floor of both."""
        assert t_quantile(p, df) > t_quantile(p, 2 * df) > normal_quantile(p)
        deviate = normal_quantile(p)
        assert t_sf(deviate, df) > t_sf(deviate, 2 * df) > normal_sf(deviate)

    @given(p=st.floats(min_value=1e-6, max_value=1 - 1e-6), t=_statistics.filter(abs))
    def test_large_df_limit_is_the_normal(self, p, t):
        """At df = 10^6 the two differ by about (z^3 + z) / (4 df)."""
        assert t_quantile(p, 1e6) == pytest.approx(normal_quantile(p), rel=1e-4, abs=1e-9)
        t /= 20  # the normal tail underflows long before |t| = 100
        assert t_sf(t, 1e6) == pytest.approx(normal_sf(t), rel=1e-3)

    @given(df=_dfs)
    def test_degenerate_ends(self, df):
        assert t_quantile(0.5, df) == 0.0
        assert t_quantile(0.0, df) == -math.inf and t_quantile(1.0, df) == math.inf
        assert t_sf(0.0, df) == pytest.approx(0.5, rel=1e-12)
        assert t_sf(math.inf, df) == 0.0 and t_sf(-math.inf, df) == 1.0


class TestFTailAgainstScipy:
    @given(
        f=st.floats(min_value=1e-3, max_value=1e4),
        df1=st.one_of(st.integers(1, 100), st.floats(min_value=1.0, max_value=100.0)),
        df2=_dfs,
    )
    def test_tail(self, f, df1, df2):
        # abs: scipy itself underflows to 0 below about 1e-200
        assert f_sf(f, df1, df2) == pytest.approx(
            float(scipy_stats.f.sf(f, df1, df2)), rel=1e-9, abs=1e-150
        )

    @given(t=st.floats(min_value=0.0, max_value=100.0), df=_dfs)
    def test_squared_t_is_f(self, t, df):
        """T^2 on df degrees of freedom is F on (1, df)."""
        assert f_sf(t * t, 1, df) == pytest.approx(2 * t_sf(t, df), rel=1e-9, abs=1e-300)

    @given(f=st.floats(max_value=0.0, allow_nan=False), df1=_dfs, df2=_dfs)
    def test_nothing_lies_below_zero(self, f, df1, df2):
        assert f_sf(f, df1, df2) == 1.0
        assert f_sf(math.inf, df1, df2) == 0.0


class TestCriticalDeviate:
    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_reproduces_the_scipy_rule_at_every_sample_size(self, confidence):
        """t.ppf below 50 observations, norm.ppf from 50 up: the rule
        ``critical_t`` spelled with scipy before section 19."""
        upper = 1 - (1 - confidence) / 2
        for n in range(2, 201):
            if n < NORMAL_APPROXIMATION_N:
                expected = float(scipy_stats.t.ppf(upper, df=n - 1))
            else:
                expected = float(scipy_stats.norm.ppf(upper))
            assert critical_deviate(confidence, n - 1) == pytest.approx(expected, rel=1e-10)
            assert critical_t(confidence, n) == critical_deviate(confidence, n - 1)

    def test_without_df_it_is_the_normal_deviate(self):
        assert critical_deviate(0.95) == pytest.approx(1.959963984540054, rel=1e-14)


class TestRejectedInputs:
    """A bad argument is a one-line ValueError at every entry point, never
    a NaN, an infinite or an inverted interval."""

    BAD_CONFIDENCES = [0.0, 1.0, 1.5, -1.0, math.nan]

    @pytest.mark.parametrize("confidence", BAD_CONFIDENCES)
    def test_confidence_outside_the_open_unit_interval(self, confidence):
        strata = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]
        calls = [
            lambda: critical_deviate(confidence, 9),
            lambda: critical_deviate(confidence),
            lambda: critical_t(confidence, 10),
            lambda: confidence_interval([1.0, 2.0, 3.0], confidence),
            lambda: estimate_sample_size(0.09, 0.04, confidence),
            lambda: stratified_confidence_interval(strata, [1, 1], confidence),
            # no variance, no margin -- and still no pass for the level
            lambda: stratified_confidence_interval([[2.0, 2.0]], [1], confidence),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\)"):
                call()

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan, math.inf])
    def test_probability_outside_the_unit_interval(self, p):
        for call in (lambda: normal_quantile(p), lambda: t_quantile(p, 5)):
            with pytest.raises(ValueError, match="probability must be in"):
                call()

    @pytest.mark.parametrize("df", [0, -1, -0.5, math.nan, math.inf])
    def test_degrees_of_freedom_not_positive_and_finite(self, df):
        calls = [
            lambda: t_sf(1.0, df),
            lambda: t_quantile(0.9, df),
            lambda: f_sf(1.0, df, 5),
            lambda: f_sf(1.0, 5, df),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="degrees of freedom must be"):
                call()
        if df != math.inf:  # no df at all is the normal deviate
            with pytest.raises(ValueError, match="degrees of freedom must be"):
                critical_deviate(0.95, df)

    def test_nan_statistic(self):
        for call in (
            lambda: normal_sf(math.nan),
            lambda: t_sf(math.nan, 5),
            lambda: f_sf(math.nan, 2, 5),
        ):
            with pytest.raises(ValueError, match="statistic must be a number"):
                call()
