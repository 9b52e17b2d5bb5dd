"""Tests for multi-run orchestration internals."""

import pytest

from repro.config import RunConfig, SystemConfig
from repro.core.request import RunRequest, WorkloadSpec, execute_request
from repro.core.runner import run_space
from repro.system.simulation import run_simulation
from repro.workloads.registry import make_workload

CONFIG = SystemConfig(n_cpus=4)


class TestLegacyJobTuples:
    """Workload parameter overrides travel inside the request (they once
    rode in a positional job tuple; the class name is kept for test ids)."""

    def test_tuple_param_override_matters(self):
        results = []
        for districts in (2, 64):
            request = RunRequest(
                config=CONFIG,
                workload=WorkloadSpec.resolve(
                    "oltp",
                    workload_params={
                        "threads_per_cpu": 2,
                        "n_hot_districts": districts,
                    },
                ),
                run=RunConfig(measured_transactions=40, seed=3),
            )
            results.append(execute_request(request).cycles_per_transaction)
        assert results[0] != results[1]


class TestOneRunWorker:
    def test_worker_accepts_request_checkpoint_pair(self):
        """A cold request with an explicit ``None`` checkpoint is the bare
        simulation of that request."""
        params = {"threads_per_cpu": 2}
        run = RunConfig(measured_transactions=15, seed=3)
        request = RunRequest(
            config=CONFIG, workload=WorkloadSpec.resolve("oltp", workload_params=params), run=run
        )
        result = execute_request(request, None)
        assert result.measured_transactions == 15
        bare = run_simulation(CONFIG, make_workload("oltp", **params), run)
        assert result.to_dict() == bare.to_dict()


class TestRunSpaceParams:
    def test_instance_params_propagate(self):
        """run_space must carry a workload instance's overrides into the
        per-run reconstruction (otherwise parameterized experiments would
        silently run the defaults)."""
        workload = make_workload("oltp", threads_per_cpu=2, n_hot_districts=3)
        sample = run_space(
            CONFIG, workload, RunConfig(measured_transactions=20, seed=5), n_runs=1
        )
        default_sample = run_space(
            CONFIG,
            make_workload("oltp", threads_per_cpu=2),
            RunConfig(measured_transactions=20, seed=5),
            n_runs=1,
        )
        assert sample.values != default_sample.values

    def test_explicit_params_override_instance(self):
        workload = make_workload("oltp", threads_per_cpu=2, n_hot_districts=3)
        a = run_space(
            CONFIG,
            workload,
            RunConfig(measured_transactions=20, seed=5),
            n_runs=1,
            workload_params={"n_hot_districts": 48},
        )
        b = run_space(
            CONFIG,
            make_workload("oltp", threads_per_cpu=2, n_hot_districts=48),
            RunConfig(measured_transactions=20, seed=5),
            n_runs=1,
        )
        assert a.values == b.values

    def test_n_runs_validated(self):
        with pytest.raises(ValueError):
            run_space(CONFIG, "oltp", RunConfig(), n_runs=0)

    def test_workload_name_recorded(self):
        sample = run_space(
            CONFIG,
            make_workload("oltp", threads_per_cpu=2),
            RunConfig(measured_transactions=10, seed=2),
            n_runs=1,
        )
        assert sample.workload_name == "oltp"
