"""Tests for the persistent run store: keys, serialization, durability."""

import json
import random

import pytest

from repro.config import (
    CacheConfig,
    MemoryConfig,
    OSConfig,
    PerturbationConfig,
    ProcessorConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.runner import RunSample, WorkloadSpec, run_space
from repro.store import RunStore, canonical_json, run_key
from repro.system.simulation import SimulationResult

CONFIG = SystemConfig(n_cpus=4)
RUN = RunConfig(measured_transactions=10, seed=3)


def random_system_config(rng: random.Random) -> SystemConfig:
    """A randomized-but-valid SystemConfig (property-test generator)."""
    block = rng.choice([32, 64])
    assoc = rng.choice([1, 2, 4])
    return SystemConfig(
        n_cpus=rng.choice([2, 4, 8, 16]),
        l1i=CacheConfig(size_bytes=assoc * block * rng.choice([16, 32]),
                        associativity=assoc, block_bytes=block),
        l1d=CacheConfig(size_bytes=8 * 1024, associativity=4),
        l2=CacheConfig(size_bytes=256 * 1024, associativity=4, hit_latency_ns=20),
        memory=MemoryConfig(dram_latency_ns=rng.choice([80, 120, 200])),
        processor=ProcessorConfig(model=rng.choice(["simple", "ooo"]),
                                  rob_entries=rng.choice([32, 64, 128])),
        os=OSConfig(quantum_ns=rng.choice([100_000, 200_000])),
        perturbation=PerturbationConfig(max_ns=rng.choice([0, 4, 16])),
        coherence_protocol=rng.choice(["mosi", "mesi", "moesi"]),
    )


def random_run_config(rng: random.Random) -> RunConfig:
    return RunConfig(
        measured_transactions=rng.randint(1, 500),
        warmup_transactions=rng.randint(0, 100),
        seed=rng.randint(0, 10**6),
        max_time_ns=rng.choice([10**9, 30 * 10**9]),
    )


def wspec(name="oltp", seed=12345, scale=1.0, **params) -> WorkloadSpec:
    """A workload identity, params in the order given."""
    return WorkloadSpec(name, seed, scale, tuple(params.items()))


class TestKeys:
    def test_same_inputs_same_key(self):
        """Property: key is a pure function of the run's cause."""
        rng = random.Random(7)
        for _ in range(20):
            config = random_system_config(rng)
            run = random_run_config(rng)
            k1 = run_key(config, run, wspec(threads_per_cpu=2))
            k2 = run_key(
                SystemConfig.from_dict(config.to_dict()),
                RunConfig.from_dict(run.to_dict()),
                wspec(threads_per_cpu=2),
            )
            assert k1 == k2

    def test_any_field_change_changes_key(self):
        base = run_key(CONFIG, RUN, wspec())
        assert run_key(CONFIG.with_dram_latency(200), RUN, wspec()) != base
        assert run_key(CONFIG, RunConfig(measured_transactions=10, seed=4), wspec()) != base
        assert run_key(CONFIG, RUN, wspec("apache")) != base
        assert run_key(CONFIG, RUN, wspec(seed=999)) != base
        assert run_key(CONFIG, RUN, wspec(scale=2.0)) != base
        assert run_key(CONFIG, RUN, wspec(threads_per_cpu=2)) != base
        assert run_key(CONFIG, RUN, wspec(), checkpoint_digest="abc") != base

    def test_param_order_irrelevant(self):
        a = run_key(CONFIG, RUN, wspec(threads_per_cpu=2, n_hot_districts=3))
        b = run_key(CONFIG, RUN, wspec(n_hot_districts=3, threads_per_cpu=2))
        assert a == b

    def test_canonical_json_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestSerializationRoundTrip:
    def test_system_config_round_trip(self):
        """Property: from_dict(to_dict(x)) == x over randomized configs."""
        rng = random.Random(21)
        for _ in range(25):
            config = random_system_config(rng)
            assert SystemConfig.from_dict(config.to_dict()) == config
            # and the dict form survives actual JSON text
            assert SystemConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_run_config_round_trip(self):
        rng = random.Random(22)
        for _ in range(25):
            run = random_run_config(rng)
            assert RunConfig.from_dict(run.to_dict()) == run

    def test_simulation_result_round_trip(self):
        sample = run_space(CONFIG, "oltp", RUN, 1,
                           workload_params={"threads_per_cpu": 2})
        result = sample.results[0]
        restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result

    def test_simulation_result_with_times_round_trip(self):
        from repro.system.simulation import run_simulation

        result = run_simulation(CONFIG, "oltp", RUN, collect_transaction_times=True,
                                collect_schedule_trace=True)
        restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        assert restored.transaction_times == result.transaction_times

    def test_run_sample_round_trip(self):
        sample = run_space(CONFIG, "oltp", RUN, 2,
                           workload_params={"threads_per_cpu": 2})
        restored = RunSample.from_dict(json.loads(json.dumps(sample.to_dict())))
        assert restored == sample
        assert restored.values == sample.values


class TestRunStore:
    def test_put_get_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        sample = run_space(CONFIG, "oltp", RUN, 1,
                           workload_params={"threads_per_cpu": 2})
        store.put("k1", sample.results[0], workload="oltp")
        assert store.contains("k1")
        assert "k1" in store
        assert store.get("k1") == sample.results[0]
        assert store.get("missing") is None
        assert len(store) == 1
        assert store.keys() == ["k1"]

    def test_journal_records_every_put(self, tmp_path):
        store = RunStore(tmp_path)
        sample = run_space(CONFIG, "oltp", RUN, 2,
                           workload_params={"threads_per_cpu": 2})
        for i, result in enumerate(sample.results):
            store.put(f"k{i}", result, workload="oltp")
        entries = store.journal_entries()
        assert len(entries) == 2
        assert {e["key"] for e in entries} == {"k0", "k1"}
        assert all(e["workload"] == "oltp" for e in entries)

    def test_corrupt_run_file_skipped_with_warning(self, tmp_path):
        store = RunStore(tmp_path)
        sample = run_space(CONFIG, "oltp", RUN, 1,
                           workload_params={"threads_per_cpu": 2})
        store.put("k1", sample.results[0])
        store.path_for("k1").write_text("{ truncated garbage")
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            assert store.get("k1") is None

    def test_corrupt_journal_line_skipped_with_warning(self, tmp_path):
        store = RunStore(tmp_path)
        sample = run_space(CONFIG, "oltp", RUN, 1,
                           workload_params={"threads_per_cpu": 2})
        store.put("k1", sample.results[0])
        with open(store.journal_path, "a") as f:
            f.write("not json at all\n")
        store.put("k2", sample.results[0])
        with pytest.warns(RuntimeWarning, match="corrupt journal line 2"):
            entries = store.journal_entries()
        assert [e["key"] for e in entries] == ["k1", "k2"]

    def test_store_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "custom"))
        store = RunStore()
        assert store.root == tmp_path / "custom"
        assert store.runs_dir.is_dir()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = RunStore(tmp_path)
        sample = run_space(CONFIG, "oltp", RUN, 1,
                           workload_params={"threads_per_cpu": 2})
        for i in range(3):
            store.put("same-key", sample.results[0], attempt=i)
        assert len(list(store.runs_dir.iterdir())) == 1


class TestStoreEvents:
    def test_log_event_round_trips_fields(self, tmp_path):
        store = RunStore(tmp_path)
        store.log_event("escalation", campaign="c", action="escalate-cell",
                        reason="flip")
        store.log_event("rebalance", shard=3)
        assert [e["event"] for e in store.events()] == ["escalation", "rebalance"]
        (event,) = store.events("escalation")
        assert event["campaign"] == "c"
        assert event["reason"] == "flip"
        assert "logged_at" in event

    def test_events_excluded_from_journal_length(self, tmp_path):
        store = RunStore(tmp_path)
        sample = run_space(CONFIG, "oltp", RUN, 1,
                           workload_params={"threads_per_cpu": 2})
        store.put("k1", sample.results[0])
        store.log_event("escalation", campaign="c")
        assert store.journal_length() == 1
        assert len(store.events()) == 1

    def test_reserved_event_names_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ValueError, match="invalid event name"):
            store.log_event("")
        with pytest.raises(ValueError, match="invalid event name"):
            store.log_event("delete")

    def test_deletions_surface_as_events(self, tmp_path):
        store = RunStore(tmp_path)
        sample = run_space(CONFIG, "oltp", RUN, 1,
                           workload_params={"threads_per_cpu": 2})
        store.put("k1", sample.results[0])
        store.delete("k1", reason="stale")
        (event,) = store.events("delete")
        assert event["key"] == "k1"
        assert event["reason"] == "stale"


class TestRunSpaceStoreIntegration:
    def test_cached_runs_not_reexecuted(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        kwargs = dict(workload_params={"threads_per_cpu": 2}, store=store)
        first = run_space(CONFIG, "oltp", RUN, 2, **kwargs)
        assert store.journal_length() == 2

        import repro.core.fanout as fanout_mod

        def boom(_resident, _run):
            raise AssertionError("cached run was re-executed")

        monkeypatch.setattr(fanout_mod, "_simulate_resident", boom)
        second = run_space(CONFIG, "oltp", RUN, 2, **kwargs)
        assert second.values == first.values
        assert store.journal_length() == 2  # nothing re-executed

    def test_store_results_identical_to_direct(self, tmp_path):
        store = RunStore(tmp_path)
        direct = run_space(CONFIG, "oltp", RUN, 2,
                           workload_params={"threads_per_cpu": 2})
        stored = run_space(CONFIG, "oltp", RUN, 2,
                           workload_params={"threads_per_cpu": 2}, store=store)
        reloaded = run_space(CONFIG, "oltp", RUN, 2,
                             workload_params={"threads_per_cpu": 2}, store=store)
        assert stored.values == direct.values
        assert reloaded.values == direct.values

    def test_checkpoint_digest_stable_across_pickle_round_trip(self):
        """Digest must be a pure function of content, not insertion history.

        Set iteration order depends on how the set was built, so a
        checkpoint digested after save/load must hash identically to the
        freshly captured one -- otherwise cached runs are never reused by
        a second process.
        """
        import pickle

        from repro.system.checkpoint import Checkpoint, _canonicalize
        from repro.system.machine import Machine
        from repro.workloads.registry import make_workload

        a = {0, 2, 10, 3}
        b = pickle.loads(pickle.dumps(a))
        assert pickle.dumps(_canonicalize(a)) == pickle.dumps(_canonicalize(b))

        machine = Machine(SystemConfig(), make_workload("oltp"))
        machine.hierarchy.seed_perturbation(8)
        machine.run_until_transactions(100, max_time_ns=10**13)
        checkpoint = Checkpoint.capture(machine)
        restored = pickle.loads(pickle.dumps(checkpoint))
        assert restored.digest() == checkpoint.digest()

    def test_checkpoint_runs_do_not_collide_with_cold(self, tmp_path):
        from repro.system.checkpoint import Checkpoint
        from repro.system.machine import Machine
        from repro.workloads.registry import make_workload

        store = RunStore(tmp_path)
        machine = Machine(CONFIG, make_workload("oltp", threads_per_cpu=2))
        machine.hierarchy.seed_perturbation(9)
        machine.run_until_transactions(50, max_time_ns=10**12)
        checkpoint = Checkpoint.capture(machine)

        cold = run_space(CONFIG, "oltp", RUN, 1,
                         workload_params={"threads_per_cpu": 2}, store=store)
        warm = run_space(CONFIG, "oltp", RUN, 1,
                         workload_params={"threads_per_cpu": 2}, store=store,
                         checkpoint=checkpoint)
        assert len(store) == 2  # distinct keys
        assert cold.values != warm.values


class TestSQLiteWrite:
    def test_an_error_outside_the_retry_set_fails_at_once(self, tmp_path):
        """The work queue's ``UNIQUE`` violation is a real error: the shared
        write policy retries lock timeouts only, unless a caller adds more."""
        import sqlite3

        from repro.store.backends import sqlite_write

        calls = []

        def body(conn):
            calls.append(1)
            raise sqlite3.IntegrityError("UNIQUE constraint failed")

        with pytest.raises(sqlite3.IntegrityError):
            sqlite_write(tmp_path / "db.sqlite", body)
        assert len(calls) == 1
