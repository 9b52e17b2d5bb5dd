"""Tests for resumable campaigns: planning, resume, adaptive sampling."""

import pytest

from repro.config import RunConfig, SystemConfig
from repro.campaign import Campaign, CampaignSpec
from repro.core import fanout as fanout_mod
from repro.core.runner import (
    RunSpaceError,
    WorkloadSpec,
    run_space,
)
from repro.core.sampling import AdaptiveStopRule
from repro.store import RunStore

CONFIG = SystemConfig(n_cpus=4)
RUN = RunConfig(measured_transactions=10, seed=3)
OLTP = WorkloadSpec.resolve("oltp", workload_params={"threads_per_cpu": 2})


def fixed_spec(n_runs: int, **overrides) -> CampaignSpec:
    kwargs = dict(configs=[("base", CONFIG)], workloads=[OLTP], run=RUN, n_runs=n_runs)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestPlanning:
    def test_empty_store_all_pending(self, tmp_path):
        plan = Campaign(fixed_spec(3), RunStore(tmp_path)).plan()
        assert plan.n_pending == 3
        assert plan.n_cached == 0
        assert "3 pending" in plan.render()

    def test_plan_grid_covers_configs_and_workloads(self, tmp_path):
        spec = fixed_spec(
            2,
            configs=[("a", CONFIG), ("b", CONFIG.with_dram_latency(200))],
            workloads=[OLTP, WorkloadSpec.resolve("specjbb")],
        )
        plan = Campaign(spec, RunStore(tmp_path)).plan()
        assert len(plan.runs) == 2 * 2 * 2
        assert len({r.key for r in plan.runs}) == 8  # all distinct

    def test_plan_reflects_cached_runs(self, tmp_path):
        store = RunStore(tmp_path)
        campaign = Campaign(fixed_spec(3), store)
        campaign.run()
        plan = Campaign(fixed_spec(5), store).plan()
        assert plan.n_cached == 3
        assert plan.n_pending == 2

    def test_adaptive_plan_notes_growth(self, tmp_path):
        rule = AdaptiveStopRule(target_fraction=0.05, min_runs=2, max_runs=9)
        plan = Campaign(fixed_spec(99, stop_rule=rule), RunStore(tmp_path)).plan()
        assert len(plan.runs) == 2  # plans the minimum
        assert "9" in plan.render()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(configs=[], workloads=[OLTP], run=RUN)
        with pytest.raises(ValueError):
            CampaignSpec(configs=[("a", CONFIG)], workloads=[], run=RUN)
        with pytest.raises(ValueError):
            CampaignSpec(configs=[("a", CONFIG)], workloads=[OLTP], run=RUN, n_runs=0)


class TestFixedCampaign:
    def test_bit_for_bit_matches_run_space(self, tmp_path):
        """Acceptance: same seeds -> same cycles-per-transaction."""
        direct = run_space(CONFIG, "oltp", RUN, 3,
                           workload_params={"threads_per_cpu": 2})
        report = Campaign(fixed_spec(3), RunStore(tmp_path)).run()
        assert report.sample("base", "oltp").values == direct.values

    def test_second_run_fully_cached(self, tmp_path):
        store = RunStore(tmp_path)
        first = Campaign(fixed_spec(3), store).run()
        second = Campaign(fixed_spec(3), store).run()
        assert first.cells[0].executed == 3
        assert second.cells[0].executed == 0
        assert second.cells[0].cached_hits == 3
        assert second.sample("base", "oltp").values == first.sample("base", "oltp").values
        assert store.journal_length() == 3  # no extra executions recorded

    def test_report_render_and_lookup(self, tmp_path):
        report = Campaign(fixed_spec(2), RunStore(tmp_path)).run()
        text = report.render()
        assert "base" in text and "oltp" in text and "fixed-N" in text
        with pytest.raises(KeyError):
            report.sample("nope", "oltp")


class TestResumeAfterInterrupt:
    def test_interrupted_campaign_resumes_missing_seeds_only(self, tmp_path, monkeypatch):
        """Acceptance: kill mid-flight, re-invoke, only missing seeds run."""
        store = RunStore(tmp_path)
        real_simulate = fanout_mod._simulate_resident
        calls = {"n": 0}

        def interrupting(resident, run):
            if calls["n"] >= 2:
                raise KeyboardInterrupt  # the operator hits Ctrl-C
            calls["n"] += 1
            return real_simulate(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", interrupting)
        with pytest.raises(KeyboardInterrupt):
            Campaign(fixed_spec(5), store).run()
        assert store.journal_length() == 2  # partial results persisted

        monkeypatch.setattr(fanout_mod, "_simulate_resident", real_simulate)
        executions = {"n": 0}

        def counting(resident, run):
            executions["n"] += 1
            return real_simulate(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", counting)
        report = Campaign(fixed_spec(5), store).run()
        assert executions["n"] == 3  # only the missing seeds
        assert report.cells[0].cached_hits == 2
        assert report.cells[0].executed == 3
        assert len(report.sample("base", "oltp").results) == 5
        assert store.journal_length() == 5

    def test_resumed_sample_matches_uninterrupted(self, tmp_path):
        store_a = RunStore(tmp_path / "a")
        store_b = RunStore(tmp_path / "b")
        uninterrupted = Campaign(fixed_spec(4), store_a).run()
        # simulate an interrupt by running a prefix first
        Campaign(fixed_spec(2), store_b).run()
        resumed = Campaign(fixed_spec(4), store_b).run()
        assert (resumed.sample("base", "oltp").values
                == uninterrupted.sample("base", "oltp").values)


class TestFaultTolerance:
    def test_failed_run_reported_not_fatal(self, tmp_path, monkeypatch):
        real_simulate = fanout_mod._simulate_resident

        def flaky(resident, run):
            if run.seed == RUN.seed + 1:
                raise RuntimeError("synthetic fault")
            return real_simulate(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", flaky)
        report = Campaign(fixed_spec(3), RunStore(tmp_path)).run()
        cell = report.cells[0]
        assert len(cell.failures) == 1
        assert cell.failures[0].seed == RUN.seed + 1
        assert "synthetic fault" in cell.failures[0].error
        assert len(cell.sample.results) == 2  # the others completed
        assert report.n_failures == 1

    def test_per_run_timeout_recorded(self, tmp_path, monkeypatch):
        import time

        def sleepy(_resident, _run):
            time.sleep(5)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", sleepy)
        report = Campaign(
            fixed_spec(1), RunStore(tmp_path), timeout_s=0.2
        ).run()
        cell = report.cells[0]
        assert len(cell.failures) == 1
        assert cell.failures[0].kind == "timeout"


class TestAdaptiveCampaign:
    def test_stops_at_min_runs_when_deterministic(self, tmp_path):
        """Zero perturbation -> zero variance -> CI target met immediately."""
        rule = AdaptiveStopRule(target_fraction=0.02, min_runs=3, max_runs=20,
                                batch_size=4)
        spec = fixed_spec(
            99,
            configs=[("frozen", CONFIG.with_perturbation(0))],
            stop_rule=rule,
        )
        report = Campaign(spec, RunStore(tmp_path)).run()
        cell = report.cells[0]
        assert len(cell.sample.results) == rule.min_runs
        assert cell.stop_reason.startswith("CI target met")

    def test_stops_early_when_half_width_hits_target(self, tmp_path):
        """Acceptance: a loose target stops before the run cap."""
        rule = AdaptiveStopRule(target_fraction=0.25, min_runs=2, max_runs=30,
                                batch_size=2)
        report = Campaign(fixed_spec(99, stop_rule=rule), RunStore(tmp_path)).run()
        cell = report.cells[0]
        assert len(cell.sample.results) < rule.max_runs
        assert cell.stop_reason.startswith("CI target met")
        from repro.core.confidence import confidence_interval

        ci = confidence_interval(cell.sample.values, rule.confidence)
        assert ci.half_width <= rule.target_fraction * ci.mean

    def test_run_cap_respected_for_unreachable_target(self, tmp_path):
        rule = AdaptiveStopRule(target_fraction=1e-9, min_runs=2, max_runs=5,
                                batch_size=2)
        report = Campaign(fixed_spec(99, stop_rule=rule), RunStore(tmp_path)).run()
        cell = report.cells[0]
        assert len(cell.sample.results) == rule.max_runs
        assert cell.stop_reason == f"run cap ({rule.max_runs})"

    def test_adaptive_resume_reuses_store(self, tmp_path):
        store = RunStore(tmp_path)
        rule = AdaptiveStopRule(target_fraction=1e-9, min_runs=2, max_runs=6,
                                batch_size=2)
        first = Campaign(fixed_spec(99, stop_rule=rule), store).run()
        second = Campaign(fixed_spec(99, stop_rule=rule), store).run()
        assert first.cells[0].executed == 6
        assert second.cells[0].executed == 0
        assert second.cells[0].cached_hits == 6


class TestAdaptiveStopRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveStopRule(target_fraction=0)
        with pytest.raises(ValueError):
            AdaptiveStopRule(min_runs=1)
        with pytest.raises(ValueError):
            AdaptiveStopRule(min_runs=10, max_runs=5)
        with pytest.raises(ValueError):
            AdaptiveStopRule(batch_size=0)
        with pytest.raises(ValueError):
            AdaptiveStopRule(confidence=1.5)

    def test_fills_to_min_runs_first(self):
        rule = AdaptiveStopRule(min_runs=4, max_runs=10, batch_size=8)
        assert rule.next_batch([]) == 4
        assert rule.next_batch([1.0, 1.1]) == 2

    def test_stops_on_tight_sample(self):
        rule = AdaptiveStopRule(target_fraction=0.5, min_runs=2, max_runs=10)
        assert rule.next_batch([100.0, 100.1, 99.9]) == 0
        assert rule.satisfied_by([100.0, 100.1, 99.9])

    def test_requests_more_on_noisy_sample(self):
        rule = AdaptiveStopRule(target_fraction=0.01, min_runs=2, max_runs=100,
                                batch_size=5)
        batch = rule.next_batch([100.0, 150.0, 50.0])
        assert 1 <= batch <= 5

    def test_never_exceeds_max_runs(self):
        rule = AdaptiveStopRule(target_fraction=1e-9, min_runs=2, max_runs=4,
                                batch_size=10)
        assert rule.next_batch([100.0, 150.0, 50.0]) == 1
        assert rule.next_batch([100.0, 150.0, 50.0, 120.0]) == 0


class TestWorkloadSeedHandling:
    def test_explicit_workload_seed_changes_content(self):
        a = run_space(CONFIG, "oltp", RUN, 1,
                      workload_params={"threads_per_cpu": 2})
        b = run_space(CONFIG, "oltp", RUN, 1,
                      workload_params={"threads_per_cpu": 2}, workload_seed=777)
        assert a.values != b.values

    def test_default_matches_registry_default(self):
        from repro.workloads.registry import make_workload

        by_name = run_space(CONFIG, "oltp", RUN, 1,
                            workload_params={"threads_per_cpu": 2})
        by_instance = run_space(
            CONFIG, make_workload("oltp", threads_per_cpu=2), RUN, 1
        )
        assert by_name.values == by_instance.values

    def test_conflicting_instance_seed_rejected(self):
        from repro.workloads.registry import make_workload

        with pytest.raises(ValueError, match="workload_seed"):
            run_space(CONFIG, make_workload("oltp", seed=1), RUN, 1,
                      workload_seed=2)


class TestRunSpaceErrorCapture:
    def test_failure_names_the_seed(self, monkeypatch):
        import repro.core.fanout as fanout_mod

        real = fanout_mod._simulate_resident

        def flaky(resident, run):
            if run.seed == RUN.seed + 1:
                raise ZeroDivisionError("boom")
            return real(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", flaky)
        with pytest.raises(RunSpaceError) as excinfo:
            run_space(CONFIG, "oltp", RUN, 3,
                      workload_params={"threads_per_cpu": 2})
        err = excinfo.value
        assert [f.seed for f in err.failures] == [RUN.seed + 1]
        assert "ZeroDivisionError" in str(err)
        assert err.completed == 2

    def test_completed_runs_persisted_before_raise(self, tmp_path, monkeypatch):
        import repro.core.fanout as fanout_mod

        store = RunStore(tmp_path)
        real = fanout_mod._simulate_resident

        def flaky(resident, run):
            if run.seed == RUN.seed:
                raise RuntimeError("first seed dies")
            return real(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", flaky)
        with pytest.raises(RunSpaceError):
            run_space(CONFIG, "oltp", RUN, 3,
                      workload_params={"threads_per_cpu": 2}, store=store)
        assert store.journal_length() == 2  # survivors persisted

        monkeypatch.setattr(fanout_mod, "_simulate_resident", real)
        sample = run_space(CONFIG, "oltp", RUN, 3,
                           workload_params={"threads_per_cpu": 2}, store=store)
        assert len(sample.results) == 3
        assert store.journal_length() == 3  # only the failed seed re-ran


class TestTimedOutSurfacing:
    def test_summary_flags_timed_out_runs(self):
        sample = run_space(CONFIG, "oltp", RUN, 2,
                           workload_params={"threads_per_cpu": 2})
        assert sample.n_timed_out == 0
        assert "TIMED-OUT" not in str(sample.summary())

        import dataclasses

        tainted = dataclasses.replace(sample.results[0], timed_out=True)
        tainted_sample = type(sample)(
            config=sample.config,
            workload_name=sample.workload_name,
            results=[tainted, sample.results[1]],
        )
        summary = tainted_sample.summary()
        assert summary.n_timed_out == 1
        assert "TIMED-OUT=1" in str(summary)
