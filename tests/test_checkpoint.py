"""Tests for checkpoint capture/restore."""

import pytest

from repro.config import RunConfig, SystemConfig
from repro.core.request import RunRequest, WorkloadSpec
from repro.core.runner import run_space
from repro.store import RunStore
from repro.system.checkpoint import Checkpoint, make_checkpoints
from repro.system.machine import Machine
from repro.workloads.registry import make_workload


def small_workload():
    return make_workload("oltp", threads_per_cpu=2)


def warmed_machine(n_cpus=4, txns=40) -> Machine:
    config = SystemConfig(n_cpus=n_cpus)
    machine = Machine(config, small_workload())
    machine.hierarchy.seed_perturbation(21)
    machine.run_until_transactions(txns, max_time_ns=10**12)
    return machine


class TestExactness:
    def test_restored_machine_continues_identically(self):
        """The critical property: capture + restore + continue must equal
        continue-without-checkpoint, event for event."""
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        expected_end = machine.run_until_transactions(80, max_time_ns=10**12)
        expected_txns = machine.completed_transactions

        restored = checkpoint.materialize(SystemConfig(n_cpus=4), small_workload())
        actual_end = restored.run_until_transactions(80, max_time_ns=10**12)
        assert actual_end == expected_end
        assert restored.completed_transactions == expected_txns

    def test_restore_preserves_clock_and_counts(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        restored = checkpoint.materialize(SystemConfig(n_cpus=4), small_workload())
        assert restored.clock.now == machine.clock.now
        assert restored.completed_transactions == machine.completed_transactions
        assert restored.workload_clock.total_started == machine.workload_clock.total_started

    def test_restore_preserves_cache_contents(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        restored = checkpoint.materialize(SystemConfig(n_cpus=4), small_workload())
        for node in range(4):
            assert sorted(restored.hierarchy.l2[node].resident_blocks()) == sorted(
                machine.hierarchy.l2[node].resident_blocks()
            )

    def test_coherence_invariants_after_restore(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        restored = checkpoint.materialize(SystemConfig(n_cpus=4), small_workload())
        assert restored.hierarchy.check_coherence_invariants() == []


class TestCrossConfigRestore:
    def test_restore_into_different_associativity(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        config = SystemConfig(n_cpus=4).with_l2_associativity(1)
        restored = checkpoint.materialize(config, small_workload())
        assert restored.hierarchy.check_coherence_invariants() == []
        restored.run_until_transactions(60, max_time_ns=10**12)
        assert restored.completed_transactions >= 60

    def test_restore_into_different_dram_latency(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        config = SystemConfig(n_cpus=4).with_dram_latency(90)
        restored = checkpoint.materialize(config, small_workload())
        restored.run_until_transactions(60, max_time_ns=10**12)
        assert restored.completed_transactions >= 60

    def test_restore_into_ooo_model(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        config = SystemConfig(n_cpus=4).with_rob_entries(32)
        restored = checkpoint.materialize(config, small_workload())
        restored.run_until_transactions(60, max_time_ns=10**12)
        assert restored.completed_transactions >= 60

    def test_same_checkpoint_different_configs_same_start(self):
        """Both configurations start from identical workload state --
        the paper's same-initial-conditions requirement."""
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        a = checkpoint.materialize(SystemConfig(n_cpus=4).with_l2_associativity(2))
        b = checkpoint.materialize(SystemConfig(n_cpus=4).with_l2_associativity(4))
        assert a.workload_clock.snapshot() == b.workload_clock.snapshot()
        assert a.clock.now == b.clock.now


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        path = tmp_path / "ckpt.pkl"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        restored = loaded.materialize(SystemConfig(n_cpus=4))
        assert restored.clock.now == machine.clock.now

    def test_load_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.pkl"
        import pickle

        with open(path, "wb") as f:
            pickle.dump({"not": "a checkpoint"}, f)
        with pytest.raises(TypeError):
            Checkpoint.load(path)


def pre_workload_spec_layout(checkpoint: Checkpoint) -> Checkpoint:
    """``checkpoint`` as versions before ``Checkpoint.workload`` pickled it:
    the workload identity in four loose ``workload_*`` attributes."""
    old = object.__new__(Checkpoint)
    spec = checkpoint.workload
    vars(old).update(
        state=checkpoint.state,
        workload_name=spec.name,
        workload_seed=spec.seed,
        workload_scale=spec.scale,
        taken_at_transactions=checkpoint.taken_at_transactions,
        workload_params=spec.params_dict,
    )
    return old


class TestPreWorkloadSpecLayout:
    def test_load_rejects_the_old_layout(self, tmp_path):
        path = tmp_path / "old.pkl"
        pre_workload_spec_layout(Checkpoint.capture(warmed_machine())).save(path)
        with pytest.raises(TypeError, match="predates"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("kind", ["dir", "sqlite"])
    def test_warm_start_rewarms_over_an_old_stored_checkpoint(self, tmp_path, kind):
        """A store written before the layout change holds an old checkpoint
        under the very warm key a sample asks for: the store warns, the
        sample warms up again and lands the fresh store's results."""
        config = SystemConfig(n_cpus=4)
        run = RunConfig(measured_transactions=10, warmup_transactions=30, seed=3)
        params = {"threads_per_cpu": 2}
        stated = RunRequest(config, WorkloadSpec.resolve("oltp", workload_params=params), run)
        key = stated.warm_checkpoint_key()
        store = RunStore(tmp_path / "old", backend=kind)
        store.put_checkpoint(key, pre_workload_spec_layout(stated.warm_checkpoint()))

        def sample(store):
            return [
                result.to_dict()
                for result in run_space(
                    config, "oltp", run, 2, workload_params=params, warm_start=True,
                    store=store,
                ).results
            ]

        with pytest.warns(RuntimeWarning, match="predates") as caught:
            rewarmed = sample(store)
        (message,) = {str(w.message) for w in caught}
        assert message.startswith("run store: checkpoint ")
        assert message.endswith(
            "written by an earlier version (checkpoint predates the WorkloadSpec layout);"
            " re-warming"
        )
        assert "corrupt" not in message
        assert rewarmed == sample(RunStore(tmp_path / "fresh", backend=kind))
        assert store.get_checkpoint(key).workload == stated.workload

    def test_undecodable_checkpoint_is_still_called_corrupt(self, tmp_path):
        key = "k" * 32
        directory = RunStore(tmp_path / "dir")
        path = directory.backend.checkpoint_path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x80 not a pickle")
        database = RunStore(tmp_path / "db", backend="sqlite")
        database.put_checkpoint(key, {"not": "a checkpoint"})
        for store in (directory, database):
            with pytest.warns(RuntimeWarning) as caught:
                assert store.get_checkpoint(key) is None
            (message,) = {str(w.message) for w in caught}
            assert message.startswith("run store: skipping corrupt checkpoint ")
            assert "earlier version" not in message


class TestValidation:
    def test_workload_mismatch_rejected(self):
        machine = warmed_machine()
        checkpoint = Checkpoint.capture(machine)
        with pytest.raises(ValueError):
            checkpoint.materialize(SystemConfig(n_cpus=4), make_workload("apache"))

    def test_thread_count_mismatch_rejected(self):
        machine = warmed_machine(n_cpus=4)
        checkpoint = Checkpoint.capture(machine)
        with pytest.raises(ValueError):
            checkpoint.materialize(SystemConfig(n_cpus=8), small_workload())


class TestMakeCheckpoints:
    def test_multiple_points_from_one_run(self):
        config = SystemConfig(n_cpus=4)
        checkpoints = make_checkpoints(config, small_workload(), [20, 40, 60])
        assert [c.taken_at_transactions for c in checkpoints] == [20, 40, 60]
        clocks = [c.state["clock"] for c in checkpoints]
        assert clocks == sorted(clocks)

    def test_decreasing_counts_rejected(self):
        config = SystemConfig(n_cpus=4)
        with pytest.raises(ValueError):
            make_checkpoints(config, small_workload(), [40, 20])


def machine_l2_blocks(machine: Machine, node: int):
    return machine.hierarchy.l2[node].resident_blocks()
