"""The mixed-fidelity escalation ladder."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import RunConfig, SystemConfig
from repro.campaign.plan import CampaignSpec
from repro.core.fidelity import (
    CorrectionModel,
    EscalationPolicy,
    _conclude,
    config_family,
    run_escalated_campaign,
    sentinel_indices,
)
from repro.core.request import WorkloadSpec
from repro.core.sampling import AdaptiveStopRule
from repro.store import RunStore


class TestEscalationPolicy:
    def test_defaults(self):
        policy = EscalationPolicy()
        assert policy.base_tier == "simple"
        assert policy.reference_tier == "ooo"

    def test_validation(self):
        with pytest.raises(ValueError, match="tier"):
            EscalationPolicy(base_tier="bogus")
        with pytest.raises(ValueError, match="differ"):
            EscalationPolicy(base_tier="ooo", reference_tier="ooo")
        with pytest.raises(ValueError, match="sentinel_fraction"):
            EscalationPolicy(sentinel_fraction=0.0)
        with pytest.raises(ValueError, match="min_sentinels"):
            EscalationPolicy(min_sentinels=0)


class TestSentinelSelection:
    def test_always_includes_baseline_and_far_end(self):
        picked = sentinel_indices(10, EscalationPolicy())
        assert picked[0] == 0
        assert picked[-1] == 9

    def test_single_config_grid(self):
        assert sentinel_indices(1, EscalationPolicy()) == [0]

    def test_fraction_scales_count(self):
        assert len(sentinel_indices(8, EscalationPolicy(sentinel_fraction=0.5))) == 4
        # full audit: every index is a sentinel
        assert sentinel_indices(4, EscalationPolicy(sentinel_fraction=1.0)) == [
            0,
            1,
            2,
            3,
        ]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sentinel_indices(0, EscalationPolicy())


class TestConfigFamily:
    def test_sweep_label(self):
        assert config_family("dram=180") == "dram"
        assert config_family("rob=64") == "rob"

    def test_bare_label_is_its_own_family(self):
        assert config_family("base") == "base"


class TestConclude:
    def test_overlapping_intervals_tie(self):
        assert _conclude([10.0, 11.0, 12.0], [10.5, 11.5, 12.5], 0.95) == "tie"

    def test_separated_intervals_conclude(self):
        fast = [10.0, 10.1, 10.2]
        slow = [20.0, 20.1, 20.2]
        assert _conclude(fast, slow, 0.95) == "faster"
        assert _conclude(slow, fast, 0.95) == "slower"

    def test_single_values_fall_back_to_means(self):
        assert _conclude([10.0], [20.0], 0.95) == "faster"
        assert _conclude([10.0], [10.0], 0.95) == "tie"

    def test_zero_variance_falls_back_to_means(self):
        # CI width 0 on both sides: scipy can't help; order decides
        assert _conclude([10.0, 10.0], [20.0, 20.0], 0.95) == "faster"


class TestCorrectionModel:
    def test_recovers_exact_linear_relation(self):
        pairs = [(x, 3.0 + 2.0 * x) for x in (1.0, 2.0, 5.0, 9.0)]
        model = CorrectionModel.fit("dram", "oltp", pairs)
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(3.0)
        assert model.apply([10.0]) == [pytest.approx(23.0)]

    def test_too_few_pairs_is_identity(self):
        model = CorrectionModel.fit("dram", "oltp", [(5.0, 9.0)])
        assert model.apply([5.0]) == [5.0]
        assert model.n_pairs == 1

    def test_zero_variance_pairs_shift_only(self):
        model = CorrectionModel.fit("dram", "oltp", [(5.0, 8.0), (5.0, 10.0)])
        assert model.slope == 1.0
        assert model.intercept == pytest.approx(4.0)


def ladder_spec(configs, n_runs=3, name="ladder-test"):
    return CampaignSpec(
        configs=configs,
        workloads=[WorkloadSpec.resolve("oltp")],
        run=RunConfig(measured_transactions=30, warmup_transactions=10, seed=11),
        n_runs=n_runs,
        name=name,
    )


class TestEscalationLadder:
    def test_adaptive_specs_rejected(self, tmp_path):
        spec = replace(
            ladder_spec([("base", SystemConfig())]), stop_rule=AdaptiveStopRule()
        )
        with pytest.raises(ValueError, match="fixed-N"):
            run_escalated_campaign(spec, RunStore(tmp_path))

    def test_duplicate_labels_rejected(self, tmp_path):
        spec = ladder_spec([("base", SystemConfig()), ("base", SystemConfig())])
        with pytest.raises(ValueError, match="unique"):
            run_escalated_campaign(spec, RunStore(tmp_path))

    def test_agreeing_tiers_never_escalate(self, tmp_path):
        """On configs whose model is already 'simple', both tiers simulate
        the identical effective machine: sentinels must agree and nothing
        escalates beyond them."""
        base = SystemConfig()
        spec = ladder_spec(
            [
                ("base", base),
                ("dram=120", base.with_dram_latency(120)),
                ("dram=300", base.with_dram_latency(300)),
            ]
        )
        store = RunStore(tmp_path)
        report = run_escalated_campaign(spec, store)
        assert report.n_cells == 3
        assert all(d.ok for d in report.differentials)
        kinds = {o.config_label: o.kind for o in report.outcomes}
        assert kinds["base"] == "baseline"
        assert kinds["dram=300"] == "sentinel"
        assert kinds["dram=120"] == "corrected"
        # identical tiers -> the fitted correction is (slope 1, shift 0)
        model = report.corrections[("dram", "oltp")]
        assert model.slope == pytest.approx(1.0)
        assert model.intercept == pytest.approx(0.0, abs=1e-6)
        # a 300ns DRAM against the 180ns baseline is unambiguously slower
        assert report.conclusion("dram=300", "oltp") == "slower"
        # no family/cell escalations were journaled, just the summary
        actions = [e["action"] for e in store.events("escalation")]
        assert actions == ["summary"]

    def test_ladder_runs_are_store_cached(self, tmp_path):
        base = SystemConfig()
        spec = ladder_spec(
            [("base", base), ("dram=300", base.with_dram_latency(300))],
            name="ladder-cache",
        )
        store = RunStore(tmp_path)
        first = run_escalated_campaign(spec, store)
        stored = len(store)
        second = run_escalated_campaign(spec, store)
        assert len(store) == stored  # every run came from the cache
        assert [o.conclusion for o in second.outcomes] == [
            o.conclusion for o in first.outcomes
        ]

    def test_disagreement_escalates_and_journals(self, tmp_path):
        """Over OOO configurations the simple tier is a different machine;
        drive a sweep wide enough that conclusions diverge somewhere and
        check every escalation is journaled with its reason."""
        base = SystemConfig().with_rob_entries(64)
        spec = ladder_spec(
            [
                ("base", base),
                ("dram=120", base.with_dram_latency(120)),
                ("dram=300", base.with_dram_latency(300)),
                ("dram=500", base.with_dram_latency(500)),
            ],
            name="ladder-escalate",
        )
        store = RunStore(tmp_path)
        report = run_escalated_campaign(spec, store)
        assert report.n_cells == 4
        # baseline + far-end sentinel always pay reference cost
        assert report.n_reference_cells >= 2
        # the extreme sweep point is slower at any fidelity
        assert report.conclusion("dram=500", "oltp") == "slower"
        # whatever escalated must have a journaled reason
        escalations = [
            e
            for e in store.events("escalation")
            if e["action"] in ("escalate-family", "escalate-cell")
        ]
        escalated_outcomes = [o for o in report.outcomes if o.kind == "escalated"]
        assert len(escalations) >= len(escalated_outcomes)
        for event in escalations:
            assert event["campaign"] == "ladder-escalate"
            assert event["reason"]
        summary = store.events("escalation")[-1]
        assert summary["action"] == "summary"
        assert summary["n_cells"] == 4
        assert summary["n_reference_cells"] == report.n_reference_cells

    def test_report_renders(self, tmp_path):
        spec = ladder_spec(
            [("base", SystemConfig())], n_runs=2, name="ladder-render"
        )
        report = run_escalated_campaign(spec, RunStore(tmp_path))
        text = report.render()
        assert "escalation ladder" in text
        assert "base" in text


_HASHSEED_LADDER = """
import json, sys
from repro.campaign.plan import CampaignSpec
from repro.config import RunConfig, SystemConfig
from repro.core.fidelity import EscalationPolicy, run_escalated_campaign
from repro.core.request import WorkloadSpec
from repro.store import RunStore

base = SystemConfig(n_cpus=2).with_rob_entries(32)
spec = CampaignSpec(
    configs=[("dram=180", base)]
    + [(f"dram={ns}", base.with_dram_latency(ns)) for ns in (181, 182, 183, 184)],
    workloads=[WorkloadSpec.resolve("oltp", workload_params={"threads_per_cpu": 2})],
    run=RunConfig(measured_transactions=15, warmup_transactions=5, seed=11),
    n_runs=3,
    name="hashseed",
)
report = run_escalated_campaign(
    spec, RunStore(sys.argv[1]), policy=EscalationPolicy(sentinel_fraction=0.6)
)
print(json.dumps({
    o.config_label: o.values for o in report.outcomes if o.kind == "corrected"
}))
"""


def test_corrected_values_do_not_depend_on_hash_seed(tmp_path):
    """Three same-family sentinels feed one least-squares fit; walking
    them in set order made the float sums -- and so every stored
    corrected value -- differ in the last ulp between processes."""
    src = Path(__file__).resolve().parent.parent / "src"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _HASHSEED_LADDER, str(tmp_path / hash_seed)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for hash_seed in ("0", "1")
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(json.loads(out))
    assert sorted(outputs[0]) == ["dram=181", "dram=183"]
    # == on floats, not approx: json round-trips them exactly.
    assert outputs[0] == outputs[1]
