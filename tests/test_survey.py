"""Tests for the variability survey API."""

import pytest

from repro.config import SystemConfig
from repro.core.survey import (
    DEFAULT_PLAN,
    Survey,
    SurveyEntry,
    survey_workload,
    survey_workloads,
)
from repro.core.metrics import summarize


def entry(name, cov_values) -> SurveyEntry:
    return SurveyEntry(
        workload=name,
        measured_transactions=10,
        warmup_transactions=0,
        summary=summarize(cov_values),
    )


class TestSurveyContainer:
    def test_by_name(self):
        survey = Survey(entries=[entry("a", [1.0, 1.1]), entry("b", [2.0, 2.4])])
        assert survey.by_name("b").workload == "b"

    def test_by_name_missing(self):
        with pytest.raises(KeyError):
            Survey().by_name("nope")

    def test_ranked(self):
        survey = Survey(entries=[entry("stable", [1.0, 1.01]), entry("wild", [1.0, 2.0])])
        ranked = survey.ranked_by_variability()
        assert ranked[0].workload == "wild"

    def test_render(self):
        survey = Survey(entries=[entry("a", [1.0, 1.1])])
        text = survey.render()
        assert "workload" in text and "a" in text and "CoV" in text
        assert "6.73%" in text and "9.52%" in text and "n/a" not in text

    def test_render_one_run_has_no_variability(self):
        text = Survey(entries=[entry("a", [1.0])]).render()
        assert text.count("n/a") == 2 and "0.00%" not in text


class TestSurveyExecution:
    def test_default_plan_covers_all_workloads(self):
        from repro.workloads.registry import available_workloads

        assert set(DEFAULT_PLAN) == set(available_workloads())

    def test_survey_one_workload_small(self):
        result = survey_workload(
            "barnes",
            config=SystemConfig(n_cpus=4),
            n_runs=3,
        )
        assert result.workload == "barnes"
        assert result.summary.n == 3
        assert result.coefficient_of_variation >= 0.0

    def test_survey_with_explicit_lengths(self):
        result = survey_workload(
            "oltp",
            config=SystemConfig(n_cpus=4),
            n_runs=3,
            measured_transactions=20,
            warmup_transactions=30,
        )
        assert result.measured_transactions == 20
        assert result.warmup_transactions == 30

    def test_survey_multiple(self):
        survey = survey_workloads(
            ["barnes", "ocean"], config=SystemConfig(n_cpus=4), n_runs=2
        )
        assert [e.workload for e in survey.entries] == ["barnes", "ocean"]
