"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestRemovedBackendSelector:
    """There is one slice runner; nothing is left to select."""

    def test_sim_backend_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--sim-backend=vector", "run"])
        assert "unrecognized arguments: --sim-backend" in capsys.readouterr().err

    def test_stray_env_var_changes_no_digest(self, monkeypatch):
        from tests.test_golden_determinism import (
            SCENARIOS,
            golden_digest,
            load_golden,
        )

        monkeypatch.setenv("REPRO_SIM_BACKEND", "vector")
        assert golden_digest(SCENARIOS["oltp"]) == load_golden()["oltp"]


class TestParser:
    def test_workloads_command(self):
        args = build_parser().parse_args(["workloads"])
        assert args.command == "workloads"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "oltp"
        assert args.txns == 200
        assert args.perturbation == 4

    def test_compare_requires_vary(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--a", "2", "--b", "4"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nosuch"])

    def test_vary_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--vary", "nonsense", "--a", "1", "--b", "2"]
            )

    def test_run_accepts_jobs(self):
        args = build_parser().parse_args(["run", "--jobs", "4"])
        assert args.jobs == 4

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.command == "campaign"
        assert args.runs == 10
        assert not args.adaptive
        assert not args.dry_run

    def test_sampling_mode_flag(self):
        assert build_parser().parse_args(["space"]).sampling_mode == "fixed"
        args = build_parser().parse_args(["space", "--sampling-mode", "live"])
        assert args.sampling_mode == "live"
        args = build_parser().parse_args(["campaign", "--sampling-mode", "live"])
        assert args.sampling_mode == "live"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["space", "--sampling-mode", "psychic"])


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("oltp", "barnes", "specjbb"):
            assert name in out

    def test_run_small(self, capsys):
        code = main(
            ["run", "--workload", "oltp", "--txns", "20", "--warmup", "10",
             "--cpus", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles per transaction" in out

    def test_space_small(self, capsys):
        code = main(
            ["space", "--workload", "oltp", "--txns", "20", "--warmup", "10",
             "--cpus", "4", "--runs", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CoV" in out
        assert out.count("seed") == 3

    def test_compare_small(self, capsys):
        code = main(
            ["compare", "--vary", "dram", "--a", "80", "--b", "200",
             "--workload", "oltp", "--txns", "40", "--warmup", "20",
             "--cpus", "4", "--runs", "4"]
        )
        out = capsys.readouterr().out
        assert "WCR" in out
        assert code in (0, 1)  # 1 == not significant, still a valid outcome

    def test_zero_perturbation_flag(self, capsys):
        code = main(
            ["space", "--workload", "oltp", "--txns", "20", "--warmup", "0",
             "--cpus", "4", "--runs", "2", "--perturbation", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CoV=0.00%" in out

    def test_space_live_sampling(self, capsys):
        code = main(
            ["space", "--workload", "oltp", "--txns", "32", "--warmup", "10",
             "--cpus", "2", "--runs", "2", "--sampling-mode", "live"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CoV" in out
        assert out.count("seed") == 2

    def test_space_json(self, capsys):
        code = main(
            ["space", "--workload", "oltp", "--txns", "20", "--warmup", "10",
             "--cpus", "4", "--runs", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload_name"] == "oltp"
        assert len(payload["results"]) == 2

    def test_compare_json(self, capsys):
        code = main(
            ["compare", "--vary", "dram", "--a", "80", "--b", "200",
             "--workload", "oltp", "--txns", "40", "--warmup", "20",
             "--cpus", "4", "--runs", "4", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert {"sample_a", "sample_b", "conclusion_is_safe"} <= payload.keys()
        assert code in (0, 1)


class TestCampaignCommand:
    def test_dry_run_prints_plan(self, tmp_path, capsys):
        code = main(
            ["campaign", "--workloads", "oltp", "--txns", "10", "--cpus", "4",
             "--runs", "3", "--store", str(tmp_path), "--dry-run"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 pending" in out

    def test_campaign_runs_then_resumes_from_store(self, tmp_path, capsys):
        argv = ["campaign", "--workloads", "oltp", "--txns", "10", "--cpus", "4",
                "--runs", "3", "--store", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "3 cached, 0 pending" in out

    def test_vary_without_values_errors(self, tmp_path, capsys):
        code = main(
            ["campaign", "--vary", "dram", "--store", str(tmp_path), "--dry-run"]
        )
        assert code == 2
        assert "--values" in capsys.readouterr().err
