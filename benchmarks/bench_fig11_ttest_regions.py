"""Figure 11 + section 5.1.2: the t-test on Experiment 2's conclusion.

The paper tests H0 "mean runtime(32-entry ROB) == mean runtime(64-entry)"
against the one-sided alternative.  This bench computes the test
statistic, shows the acceptance/rejection critical values at several
significance levels (the content of Figure 11), and reports the
wrong-conclusion bound (the smallest level at which H0 is rejected).
"""

from repro.analysis.tables import format_table
from repro.core.distributions import t_quantile
from repro.core.hypothesis import TABLE5_LEVELS, two_sample_t_test

from benchmarks import common
from benchmarks.experiments import experiment2_samples


def run_experiment() -> dict:
    samples = experiment2_samples()
    result = two_sample_t_test(samples[32].values, samples[64].values)
    criticals = {
        alpha: t_quantile(1 - alpha, result.degrees_of_freedom)
        for alpha in TABLE5_LEVELS
    }
    return {"test": result, "criticals": criticals}


def report(result: dict) -> str:
    test = result["test"]
    rows = [
        [
            f"{alpha:.3f}",
            f"{critical:.3f}",
            "REJECT H0 (conclude 64 > 32)" if test.statistic > critical else "accept H0",
        ]
        for alpha, critical in result["criticals"].items()
    ]
    table = format_table(
        ["significance level", "critical t", "decision"],
        rows,
        title=(
            f"Figure 11: t = {test.statistic:.3f} with "
            f"{test.degrees_of_freedom:.0f} dof (one-sided p = {test.p_value:.4f})"
        ),
    )
    return table + (
        f"\nwrong-conclusion probability bound: {test.wrong_conclusion_bound:.4f}"
    )


def test_fig11(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    common.print_header("Figure 11: t-test acceptance/rejection regions")
    print(report(result))
    test = result["test"]
    assert 0.0 <= test.p_value <= 1.0
    # When the pair is too close to call (high WCR -- the paper's own
    # characterization of 32 vs 64), the sample means can orient either
    # way; the test's value is the explicit wrong-conclusion bound.
    if test.mean_a > test.mean_b:
        # Conventional orientation: the decision logic is exercised.
        assert test.statistic > 0


if __name__ == "__main__":
    print(report(run_experiment()))
