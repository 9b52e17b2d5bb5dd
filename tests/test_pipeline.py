"""One worker pool per campaign: cells pipeline, results do not move.

``repro.core.fanout.run_cells`` serves every cell of a campaign from a
single pool -- warm-ups are pool tasks, a finished warm-up recruits its
cell's seed batches, and the next cell warms while this one measures.
These tests lock what that must not change (every byte a campaign
produces, whatever ``n_jobs``) and restate the fault-tolerance contract
for the shared pool: worker death is retried within a per-seed budget
and never charged to an innocent cell, interrupts keep everything that
finished, and worker/parent residency stays bounded.
"""

import logging
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro.system.checkpoint as checkpoint_mod
from repro.campaign import Campaign, CampaignSpec
from repro.campaign.plan import cell_request
from repro.config import RunConfig, SystemConfig
from repro.core import fanout as fanout_mod
from repro.core.fanout import (
    SeedOrder,
    SharedRunContext,
    WarmOrder,
    execute_shared,
    run_cells,
)
from repro.core.request import RunRequest, effective_config
from repro.core.runner import WorkloadSpec
from repro.core.sampling import AdaptiveStopRule
from repro.store import RunStore

CONFIG = SystemConfig(n_cpus=4)
RUN = RunConfig(measured_transactions=12, warmup_transactions=15, seed=40)
OLTP = WorkloadSpec.resolve("oltp", workload_params={"threads_per_cpu": 2})
JBB = WorkloadSpec.resolve("specjbb")
CONFIGS = [
    ("base", CONFIG),
    ("dram=160", CONFIG.with_dram_latency(160)),
    ("dram=240", CONFIG.with_dram_latency(240)),
]


def grid(n_runs=3, configs=CONFIGS, workloads=(OLTP, JBB), **overrides) -> CampaignSpec:
    return CampaignSpec(
        configs=list(configs), workloads=list(workloads), run=RUN, n_runs=n_runs,
        warm_start=True, **overrides,
    )


def warm_keys(store: RunStore) -> list[str]:
    directory = store.checkpoint_path_for("any").parent
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else []


def fingerprint(report, store: RunStore) -> dict:
    """Everything a campaign leaves behind that must not depend on n_jobs."""
    return {
        "cells": [
            (c.config_label, c.workload, c.cached_hits, c.executed, c.stop_reason,
             [f.seed for f in c.failures], [r.to_dict() for r in c.sample.results])
            for c in report.cells
        ],
        "run_keys": sorted(store.keys()),
        "warm_keys": warm_keys(store),
    }


def in_worker(parent_pid: int) -> bool:
    return os.getpid() != parent_pid


class TestSameBytesAtAnyWidth:
    @pytest.mark.parametrize(
        "rule",
        [None, AdaptiveStopRule(target_fraction=0.02, min_runs=2, max_runs=5, batch_size=2)],
        ids=["fixed-N", "adaptive"],
    )
    @pytest.mark.parametrize("n_jobs", [2, 5])  # 5: more workers than cores or batches
    def test_pipelined_grid_matches_in_process(self, tmp_path, rule, n_jobs):
        spec = grid(stop_rule=rule)
        serial_store, piped_store = RunStore(tmp_path / "1"), RunStore(tmp_path / "2")
        serial = Campaign(spec, serial_store, n_jobs=1).run()
        piped = Campaign(spec, piped_store, n_jobs=n_jobs).run()
        assert [(c.config_label, c.workload) for c in piped.cells] == [
            (label, wspec.name) for label, _config, wspec in spec.cells()
        ]
        assert fingerprint(piped, piped_store) == fingerprint(serial, serial_store)
        assert len(warm_keys(piped_store)) == 6
        # ... and a resume over either store is pure reads.
        again = Campaign(spec, piped_store, n_jobs=n_jobs).run()
        assert all(c.executed == 0 for c in again.cells)
        assert [c.sample.values for c in again.cells] == [c.sample.values for c in serial.cells]

    def test_stored_warm_key_orders_no_warm_up(self, tmp_path, monkeypatch):
        """A checkpoint cached by ``warm_checkpoint(store=...)`` -- this or
        any earlier version of the library -- is found under the cell's
        planned warm key."""
        store = RunStore(tmp_path)
        spec = grid(configs=CONFIGS[:2], workloads=[OLTP])
        for _label, config, wspec in spec.cells():
            checkpoint_mod.warm_checkpoint(
                effective_config(config, spec.fidelity), wspec.make(),
                warmup_transactions=RUN.warmup_transactions, max_time_ns=RUN.max_time_ns,
                store=store,
            )
            ref = cell_request(spec, config, wspec).checkpoint_ref
            assert store.get_checkpoint(ref.removeprefix("warm:")) is not None

        def refuse(order):
            raise AssertionError(f"ordered a warm-up the store already holds: {order}")

        monkeypatch.setattr(fanout_mod, "_run_warm", refuse)
        report = Campaign(spec, store).run()
        assert [c.executed for c in report.cells] == [3, 3]
        assert len(warm_keys(store)) == 2


class TestRunCells:
    def test_inline_drives_cells_to_completion_in_order(self):
        trail = []

        def cell(name):
            stated = RunRequest(CONFIG, OLTP, replace(RUN, warmup_transactions=10))
            checkpoint = yield WarmOrder(stated)
            trail.append((name, "warm"))
            context = SharedRunContext(
                config=CONFIG, spec=OLTP, run=RunConfig(measured_transactions=5, seed=1),
                checkpoint=checkpoint,
            )
            done, fails = yield SeedOrder(context, [1, 2])
            trail.append((name, "seeds"))
            return name, sorted(done), fails

        assert run_cells(cell(name) for name in "ab") == [
            ("a", [1, 2], []), ("b", [1, 2], []),
        ]
        assert trail == [("a", "warm"), ("a", "seeds"), ("b", "warm"), ("b", "seeds")]

    def test_cached_cells_fork_nothing(self, monkeypatch):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a campaign with nothing to execute built a pool")

        def cached(value):
            return value
            yield

        monkeypatch.setattr(fanout_mod, "ProcessPoolExecutor", no_pool)
        assert run_cells([cached(1), cached(2)], n_jobs=2) == [1, 2]
        assert execute_shared(
            SharedRunContext(config=CONFIG, spec=OLTP, run=RUN), [], n_jobs=2
        ) == ({}, [])


class TestWorkerDeath:
    def _context(self):
        return SharedRunContext(
            config=CONFIG, spec=OLTP, run=RunConfig(measured_transactions=8, seed=1)
        )

    def test_partitions_cover_every_seed_exactly_once(self, monkeypatch):
        """One seed raises, one kills its worker every time: each ends up
        in ``failures`` once, everything else in ``results``."""
        real, parent = fanout_mod._simulate_resident, os.getpid()

        def hostile(resident, run):
            if run.seed == 3:
                raise RuntimeError("synthetic fault")
            if run.seed == 6 and in_worker(parent):
                os._exit(1)
            return real(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", hostile)
        seeds = list(range(1, 9))
        results, failures = execute_shared(
            self._context(), seeds, n_jobs=2, batch_size=2, retries=1
        )
        assert sorted(results) == [1, 2, 4, 5, 7, 8]
        assert sorted((f.seed, f.kind) for f in failures) == [(3, "error"), (6, "crash")]
        # in a batch, among the suspects, alone: only the last death is final
        assert "worker crashed 3 times" in [f.error for f in failures if f.seed == 6][0]

    def test_death_while_the_parent_is_busy_is_retried(self, monkeypatch):
        """A worker dies while the parent sits in ``on_result``: the next
        ``submit`` finds the pool already broken, which is a crash to
        recover from like any other, not a reason to abort."""
        real, parent = fanout_mod._simulate_resident, os.getpid()

        def slow_death(resident, run):
            if run.seed == 2 and in_worker(parent):
                time.sleep(0.5)
                os._exit(1)
            return real(resident, run)

        def slow_persist(seed, _result):
            if seed == 1:
                time.sleep(1.5)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", slow_death)
        results, failures = execute_shared(
            self._context(), list(range(1, 9)), n_jobs=2, batch_size=1, retries=1,
            on_result=slow_persist,
        )
        assert sorted(results) == [1, 3, 4, 5, 6, 7, 8]
        assert [(f.seed, f.kind) for f in failures] == [(2, "crash")]

    def test_idle_worker_death_charges_nobody(self, caplog):
        """Nothing was in flight when the worker went, so nothing is
        charged: the pool is rebuilt and the cell's next order runs."""
        import multiprocessing
        import signal

        def cell():
            first, _ = yield SeedOrder(self._context(), [1])
            for worker in multiprocessing.active_children():
                os.kill(worker.pid, signal.SIGKILL)
            time.sleep(0.5)  # let the executor notice
            second, fails = yield SeedOrder(self._context(), [2, 3])
            return sorted(first | second), fails

        with caplog.at_level(logging.INFO, logger="repro.core.fanout"):
            assert run_cells([cell()], n_jobs=2, retries=0) == [([1, 2, 3], [])]
        assert sum("worker pool up" in r.getMessage() for r in caplog.records) == 2
        assert not any(r.levelno >= logging.WARNING for r in caplog.records)

    def test_suspects_are_retried_side_by_side(self, tmp_path, monkeypatch, caplog):
        """One death makes every seed then in the pool a suspect; they re-run
        in parallel among themselves (one pool rebuild), not one at a time."""
        real, parent, marker = fanout_mod._simulate_resident, os.getpid(), tmp_path / "died"

        def dies_once(resident, run):
            if run.seed == 1 and in_worker(parent) and not marker.exists():
                marker.touch()
                os._exit(1)
            return real(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", dies_once)
        with caplog.at_level(logging.DEBUG, logger="repro.core.fanout"):
            results, failures = execute_shared(
                self._context(), list(range(1, 13)), n_jobs=2, batch_size=3
            )
        assert failures == [] and sorted(results) == list(range(1, 13))
        messages = [r.getMessage() for r in caplog.records]
        assert sum("worker pool up" in m for m in messages) == 2
        assert sum("worker died" in m for m in messages) == 1

    def test_single_death_is_retried(self, tmp_path, monkeypatch):
        real, parent, marker = fanout_mod._simulate_resident, os.getpid(), tmp_path / "died"

        def dies_once(resident, run):
            if run.seed == 2 and in_worker(parent) and not marker.exists():
                marker.touch()
                os._exit(1)
            return real(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", dies_once)
        seen = []
        results, failures = execute_shared(
            self._context(), [1, 2, 3, 4], n_jobs=2, batch_size=1,
            on_result=lambda seed, _r: seen.append(seed),
        )
        assert failures == [] and sorted(results) == [1, 2, 3, 4]
        assert sorted(seen) == [1, 2, 3, 4]  # persisted once each, retry included
        serial, _ = execute_shared(self._context(), [2], n_jobs=1)
        assert results[2].to_dict() == serial[2].to_dict()

    def test_no_retry_budget_fails_only_in_flight_seeds(self, monkeypatch):
        real, parent = fanout_mod._simulate_resident, os.getpid()

        def fatal(resident, run):
            if run.seed == 1 and in_worker(parent):
                os._exit(1)
            return real(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", fatal)
        results, failures = execute_shared(
            self._context(), list(range(1, 13)), n_jobs=2, batch_size=1, retries=0
        )
        assert 1 in {f.seed for f in failures}
        assert {f.kind for f in failures} == {"crash"}
        # at most the tasks in flight beside the guilty one are charged
        assert len(failures) <= fanout_mod._TASKS_PER_WORKER * 2
        assert set(results) | {f.seed for f in failures} == set(range(1, 13))
        assert not set(results) & {f.seed for f in failures}

    def _killing_warm_up(self, monkeypatch, victim: SystemConfig, marker: Path | None):
        real, parent = checkpoint_mod.warm_checkpoint, os.getpid()

        def warm(config, *args, **kwargs):
            if config == victim and in_worker(parent):
                if marker is None:
                    os._exit(1)
                if not marker.exists():
                    marker.touch()
                    os._exit(1)
            return real(config, *args, **kwargs)

        monkeypatch.setattr(checkpoint_mod, "warm_checkpoint", warm)

    def test_warm_up_death_is_retried(self, tmp_path, monkeypatch):
        spec = grid(workloads=[OLTP])
        expected = Campaign(spec, RunStore(tmp_path / "ref")).run()
        self._killing_warm_up(monkeypatch, CONFIGS[1][1], tmp_path / "died")
        store = RunStore(tmp_path / "store")
        report = Campaign(spec, store, n_jobs=2).run()
        assert (tmp_path / "died").exists()
        assert report.n_failures == 0
        assert [c.sample.values for c in report.cells] == [
            c.sample.values for c in expected.cells
        ]

    def test_second_warm_up_death_fails_only_that_cell(self, tmp_path, monkeypatch, caplog):
        spec = grid(workloads=[OLTP])
        self._killing_warm_up(monkeypatch, CONFIGS[1][1], None)
        store = RunStore(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.core.fanout"):
            report = Campaign(spec, store, n_jobs=2, retries=1).run()
        by_label = {c.config_label: c for c in report.cells}
        doomed = by_label.pop("dram=160")
        assert doomed.executed == 0 and doomed.n_runs == 0
        assert [(f.seed, f.kind) for f in doomed.failures] == [
            (RUN.seed + i, "crash") for i in range(3)
        ]
        for cell in by_label.values():
            assert cell.failures == [] and cell.executed == 3
        assert len(warm_keys(store)) == 2  # the survivors' checkpoints
        text = caplog.text
        assert "worker died" in text and "cell 1 warm-up" in text
        assert "retry budget (1) exhausted" in text


    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_raising_warm_up_fails_only_that_cell(self, tmp_path, monkeypatch, n_jobs):
        real, doomed = checkpoint_mod.warm_checkpoint, CONFIGS[1][1]

        def warm(config, *args, **kwargs):
            if config == doomed:
                raise ValueError("synthetic warm-up fault")
            return real(config, *args, **kwargs)

        monkeypatch.setattr(checkpoint_mod, "warm_checkpoint", warm)
        store = RunStore(tmp_path)
        report = Campaign(grid(workloads=[OLTP]), store, n_jobs=n_jobs).run()
        by_label = {c.config_label: c for c in report.cells}
        doomed_cell = by_label.pop("dram=160")
        assert doomed_cell.n_runs == 0
        assert [(f.seed, f.kind) for f in doomed_cell.failures] == [
            (RUN.seed + i, "error") for i in range(3)
        ]
        assert all("synthetic warm-up fault" in f.error for f in doomed_cell.failures)
        assert [(c.failures, c.executed) for c in by_label.values()] == [([], 3), ([], 3)]
        assert len(warm_keys(store)) == 2


class TestInterrupt:
    def test_interrupt_keeps_runs_and_warm_checkpoints(self, tmp_path, monkeypatch):
        """Ctrl-C mid-campaign at n_jobs=2: whatever finished is in the
        store, and the re-run executes exactly the rest."""
        spec = grid(n_runs=4)
        store = RunStore(tmp_path)

        def interrupt_after_first_cell(line):
            if "executed" in line:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            Campaign(spec, store, n_jobs=2).run(progress=interrupt_after_first_cell)
        stored_runs, stored_warm = len(store.keys()), len(warm_keys(store))
        assert 4 <= stored_runs < 24  # the first cell at least, never everything
        assert 1 <= stored_warm <= 6
        assert store.journal_length() == stored_runs

        counts = {"runs": 0, "warm": 0}
        real_simulate, real_warm = fanout_mod._simulate_resident, fanout_mod._run_warm

        def counting_simulate(resident, run):
            counts["runs"] += 1
            return real_simulate(resident, run)

        def counting_warm(order):
            counts["warm"] += 1
            return real_warm(order)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", counting_simulate)
        monkeypatch.setattr(fanout_mod, "_run_warm", counting_warm)
        report = Campaign(spec, store, n_jobs=1).run()
        assert counts == {"runs": 24 - stored_runs, "warm": 6 - stored_warm}
        assert sum(c.cached_hits for c in report.cells) == stored_runs
        assert report.n_failures == 0 and all(c.n_runs == 4 for c in report.cells)
        reference = Campaign(spec, RunStore(tmp_path / "ref")).run()
        assert [c.sample.values for c in report.cells] == [
            c.sample.values for c in reference.cells
        ]


class TestBoundedResidency:
    def test_worker_cache_evicts_oldest(self, monkeypatch):
        import pickle

        monkeypatch.setattr(fanout_mod, "_RESIDENT", {})
        window = fanout_mod._RESIDENT_WINDOW
        blob = pickle.dumps(SharedRunContext(config=CONFIG, spec=OLTP, run=RUN))
        for i in range(window + 3):
            fanout_mod._resident(f"digest-{i}", blob)
            assert len(fanout_mod._RESIDENT) <= window
        assert list(fanout_mod._RESIDENT) == [f"digest-{i}" for i in range(3, window + 3)]
        kept = fanout_mod._RESIDENT["digest-3"]
        assert fanout_mod._resident("digest-3", b"never opened") is kept

    def test_six_cell_campaign_keeps_worker_cache_bounded(self, tmp_path, monkeypatch):
        real = fanout_mod._simulate_resident

        def checked(resident, run):
            held = len(fanout_mod._RESIDENT)
            if not 1 <= held <= fanout_mod._RESIDENT_WINDOW:
                raise AssertionError(f"{held} contexts resident in one worker")
            return real(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", checked)
        report = Campaign(grid(n_runs=2), RunStore(tmp_path), n_jobs=2).run()
        assert len(report.cells) == 6 > fanout_mod._RESIDENT_WINDOW
        assert report.n_failures == 0 and all(c.executed == 2 for c in report.cells)
        assert fanout_mod._RESIDENT == {}  # the parent never installs contexts

    def test_peak_rss_does_not_grow_with_cells(self, tmp_path):
        """High-water RSS of parent and workers after 2 cells, then after
        10 more in the same process: the parent drops each cell's
        checkpoint and blob, workers evict old contexts."""
        script = textwrap.dedent(
            """
            import resource, sys
            from repro.campaign import Campaign, CampaignSpec
            from repro.config import RunConfig, SystemConfig
            from repro.core.runner import WorkloadSpec
            from repro.store import RunStore

            def peak_mb():
                return max(
                    resource.getrusage(who).ru_maxrss
                    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
                ) / 1024.0

            def campaign(latencies, root):
                base = SystemConfig(n_cpus=4)
                spec = CampaignSpec(
                    configs=[(f"dram={n}", base.with_dram_latency(n)) for n in latencies],
                    workloads=[WorkloadSpec.resolve("oltp")],
                    run=RunConfig(measured_transactions=10, warmup_transactions=40, seed=7),
                    n_runs=2, warm_start=True,
                )
                report = Campaign(spec, RunStore(root), n_jobs=2).run()
                assert report.n_failures == 0

            campaign([80, 90], sys.argv[1] + "/a")
            small = peak_mb()
            campaign(range(100, 200, 10), sys.argv[1] + "/b")
            print(small, peak_mb())
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fanout_mod.__file__).parents[2]))
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        small, large = map(float, out.stdout.split())
        assert large <= small * 1.10, (small, large)


class TestObservability:
    def test_logger_reports_pool_and_task_walls_without_touching_output(
        self, tmp_path, caplog
    ):
        spec = grid(n_runs=2, configs=CONFIGS[:2], workloads=[OLTP])
        quiet_store, loud_store = RunStore(tmp_path / "quiet"), RunStore(tmp_path / "loud")
        quiet_lines, loud_lines = [], []
        quiet = Campaign(spec, quiet_store, n_jobs=2).run(progress=quiet_lines.append)
        with caplog.at_level(logging.DEBUG, logger="repro.core.fanout"):
            loud = Campaign(spec, loud_store, n_jobs=2).run(progress=loud_lines.append)
            Campaign(spec, RunStore(tmp_path / "inline"), n_jobs=1).run()
        records = [r for r in caplog.records if r.name == "repro.core.fanout"]
        messages = [r.getMessage() for r in records]
        assert any(r.levelno == logging.INFO and "worker pool up: 2" in r.getMessage()
                   for r in records)
        assert sum("warm-up took" in m for m in messages) == 2
        assert sum("seeds [" in m and "took" in m for m in messages) >= 2
        assert any(m.startswith("in-process WarmOrder took") for m in messages)
        assert not any(r.levelno >= logging.WARNING for r in records)
        # nothing reaches payloads, keys or progress lines
        assert fingerprint(loud, loud_store) == fingerprint(quiet, quiet_store)
        assert sorted(loud_lines) == sorted(quiet_lines)
        assert all(line.startswith("[") and "took" not in line for line in loud_lines)

    def test_crash_retry_names_the_affected_seeds(self, monkeypatch, caplog):
        real, parent = fanout_mod._simulate_resident, os.getpid()

        def fatal(resident, run):
            if run.seed == 2 and in_worker(parent):
                os._exit(1)
            return real(resident, run)

        monkeypatch.setattr(fanout_mod, "_simulate_resident", fatal)
        context = SharedRunContext(
            config=CONFIG, spec=OLTP, run=RunConfig(measured_transactions=8, seed=1)
        )
        with caplog.at_level(logging.INFO, logger="repro.core.fanout"):
            _results, failures = execute_shared(context, [1, 2], n_jobs=2, batch_size=2)
        assert [(f.seed, f.kind) for f in failures] == [(2, "crash")]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert any("cell 0 seeds [1, 2]" in m for m in warnings)
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == ["cell 0 seeds [2]: crash retry budget (1) exhausted"]
        # built once, rebuilt at most once per death (seed 2 dies in its
        # batch, as a suspect, and alone; seed 1 may be left to run after that)
        assert len(warnings) == 3
        assert 3 <= sum("worker pool up" in r.getMessage() for r in caplog.records) <= 4
