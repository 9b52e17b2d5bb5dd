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

    def test_profile_reports_reuse_and_leaks_into_nothing(self, tmp_path, capsys):
        """``--profile`` prints its table and one reuse line per memo beside
        the result, never into it: stdout under ``--json`` and every stored
        payload byte are the same with and without the flag."""
        outputs, stored = [], []
        for name, extra in (("plain", []), ("profiled", ["--profile", "--profile-top", "3"])):
            store = tmp_path / name
            code = main(
                ["space", "--workload", "oltp", "--txns", "10", "--warmup", "10",
                 "--cpus", "2", "--runs", "2", "--warm-start", "--json",
                 "--store", str(store), *extra]
            )
            assert code == 0
            captured = capsys.readouterr()
            outputs.append(captured.out)
            stored.append(
                {
                    str(path.relative_to(store)): path.read_bytes()
                    for kind in ("runs", "checkpoints")
                    for path in sorted((store / kind).rglob("*")) if path.is_file()
                }
            )
        assert outputs[0] == outputs[1] and json.loads(outputs[0])["results"]
        assert stored[0] == stored[1] and len(stored[0]) >= 3
        report = captured.err
        assert "cumulative time" in report
        assert "stream memo :" in report and "branch memo :" in report

    def test_run_profile_prints_metrics_after_the_report(self, capsys):
        code = main(
            ["run", "--workload", "oltp", "--txns", "10", "--warmup", "10",
             "--cpus", "2", "--profile", "--profile-top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("branch memo :") < out.index("cycles per transaction")

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


class TestIllegalArguments:
    """An illegal argument combination is one ``<command>: <message>`` line
    on stderr and exit code 2 on every subcommand, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["space", "--runs", "2", "--txns", "5", "--warmup", "0", "--cpus", "2",
              "--warm-start"],
             "space: warm_start needs run.warmup_transactions > 0"),
            (["space", "--runs", "0", "--txns", "5", "--cpus", "2"],
             "space: n_runs must be positive"),
            (["campaign", "--vary", "dram", "--dry-run"],
             "campaign: --vary needs --values"),
        ],
        ids=["warm-start-without-warmup", "zero-runs", "vary-without-values"],
    )
    def test_exit_2_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestScaleIsHonoured:
    """``--scale`` reaches the workload -- and so the run keys -- on every
    subcommand that accepts it, not only on ``run``."""

    SMALL = ["--workload", "oltp", "--txns", "10", "--warmup", "10", "--cpus", "2"]

    def space(self, store, scale, capsys):
        argv = ["space", *self.SMALL, "--runs", "1", "--json", "--store", str(store),
                "--scale", scale]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["results"][0]["cycles_per_transaction"]

    def test_space_scale_changes_result_and_key(self, tmp_path, capsys):
        from repro.store import RunStore

        full = self.space(tmp_path, "1.0", capsys)
        half = self.space(tmp_path, "0.5", capsys)
        assert half != full
        assert len(RunStore(tmp_path).keys()) == 2  # two identities, not one overwritten
        assert main(["run", *self.SMALL, "--scale", "0.5"]) == 0
        assert f"{half:,.0f}" in capsys.readouterr().out  # what `run --scale` measures

    def test_space_default_scale_keys_as_before(self, tmp_path, capsys):
        """Scale 1.0 through a workload instance is the key a workload
        *name* has always produced."""
        from repro.config import RunConfig, SystemConfig
        from repro.core.request import RunRequest, WorkloadSpec
        from repro.store import RunStore

        self.space(tmp_path, "1.0", capsys)
        request = RunRequest(
            config=SystemConfig(n_cpus=2).with_perturbation(4),
            workload=WorkloadSpec.resolve("oltp"),
            run=RunConfig(measured_transactions=10, warmup_transactions=10, seed=1),
        )
        assert RunStore(tmp_path).keys() == [request.run_key]

    def test_campaign_dry_run_scale_rekeys(self, tmp_path, capsys):
        argv = ["campaign", *self.SMALL, "--runs", "2", "--store", str(tmp_path)]
        assert main(argv + ["--scale", "0.5"]) == 0
        capsys.readouterr()
        assert main(argv + ["--scale", "0.5", "--dry-run"]) == 0
        assert "2 cached, 0 pending" in capsys.readouterr().out
        assert main(argv + ["--scale", "1.0", "--dry-run"]) == 0
        assert "0 cached, 2 pending" in capsys.readouterr().out
        # and `space` at the same scale is the same cell
        assert main(["space", *self.SMALL, "--runs", "2", "--store", str(tmp_path),
                     "--scale", "0.5"]) == 0
        from repro.store import RunStore

        assert RunStore(tmp_path).journal_length() == 2
