"""Fan-out determinism: parallel warm-started execution is bit-identical
to the sequential cold-start path.

The non-negotiable gate of the fan-out engine is that it changes *cost*,
never *results*: for the same inputs, ``run_space(n_jobs=N)`` must
produce the same run keys and byte-identical result payloads as
``run_space(n_jobs=1)``, with and without a store, cold and warm.  These
tests lock that, plus the machinery the engine stands on (freeze/thaw
cloning, warm-checkpoint caching, batched store lookup).
"""

import dataclasses

import pytest

from repro.config import RunConfig, SystemConfig
from repro.core import fanout as fanout_mod
from repro.core.fanout import SharedRunContext, execute_shared
from repro.core.runner import WorkloadSpec, run_space
from repro.store import RunStore, run_key, warm_key
from repro.system.checkpoint import (
    WARMUP_PERTURBATION_SEED,
    Checkpoint,
    warm_checkpoint,
)
from repro.system.machine import Machine
from repro.system.simulation import measure_machine, run_simulation
from repro.workloads.registry import make_workload

CONFIG = SystemConfig(n_cpus=4)
RUN = RunConfig(measured_transactions=30, warmup_transactions=20, seed=11)


def digests(sample):
    """Byte-level identity of a sample: the full serialized results."""
    return [r.to_dict() for r in sample.results]


class TestFreezeThaw:
    def test_thawed_machine_runs_bit_identical(self):
        run = dataclasses.replace(RUN, warmup_transactions=0)
        cold = measure_machine(
            Machine(CONFIG, make_workload("oltp")), CONFIG, run
        )
        thawed = measure_machine(
            Machine(CONFIG, make_workload("oltp")).clone(), CONFIG, run
        )
        assert cold.to_dict() == thawed.to_dict()

    def test_clone_is_independent(self):
        machine = Machine(CONFIG, make_workload("oltp"))
        clone = machine.clone()
        measure_machine(clone, CONFIG, RUN)
        # the original is untouched by the clone's run
        assert machine.completed_transactions == 0
        assert machine.clock.now == 0

    def test_freeze_requires_detached_probes(self):
        from repro.probes import ProbeBus

        machine = Machine(CONFIG, make_workload("oltp"))
        machine.attach_probes(ProbeBus())
        with pytest.raises(ValueError, match="probes"):
            machine.freeze()


@pytest.mark.parametrize("workload", ["oltp", "specjbb"])
class TestParallelMatchesSequential:
    """The acceptance gate, per workload, cold and warm, store and not."""

    def test_cold_no_store(self, workload):
        seq = run_space(CONFIG, workload, RUN, 4, n_jobs=1)
        par = run_space(CONFIG, workload, RUN, 4, n_jobs=2)
        assert digests(seq) == digests(par)

    def test_warm_no_store(self, workload):
        seq = run_space(CONFIG, workload, RUN, 4, n_jobs=1, warm_start=True)
        par = run_space(CONFIG, workload, RUN, 4, n_jobs=2, warm_start=True)
        assert digests(seq) == digests(par)

    def test_warm_with_store_same_keys_and_results(self, workload, tmp_path):
        store_seq = RunStore(tmp_path / "seq")
        store_par = RunStore(tmp_path / "par")
        seq = run_space(
            CONFIG, workload, RUN, 4, n_jobs=1, warm_start=True, store=store_seq
        )
        par = run_space(
            CONFIG, workload, RUN, 4, n_jobs=2, warm_start=True, store=store_par
        )
        assert digests(seq) == digests(par)
        # identical run keys: the parallel sample resumes the sequential one
        assert store_seq.keys() == store_par.keys()

    def test_parallel_sample_cached_for_sequential_rerun(self, workload, tmp_path):
        store = RunStore(tmp_path)
        par = run_space(CONFIG, workload, RUN, 4, n_jobs=2, store=store)
        assert store.journal_length() == 4
        seq = run_space(CONFIG, workload, RUN, 4, n_jobs=1, store=store)
        assert store.journal_length() == 4  # nothing re-executed
        assert digests(seq) == digests(par)


class TestWarmStartSemantics:
    def test_warm_start_skips_per_seed_warmup(self, tmp_path):
        sample = run_space(CONFIG, "oltp", RUN, 2, warm_start=True)
        # every seed starts from the same warm state: identical start time
        starts = {r.start_ns for r in sample.results}
        assert len(starts) == 1
        # but perturbation still differentiates the measured runs
        assert sample.results[0].to_dict() != sample.results[1].to_dict()

    def test_warm_keys_differ_from_cold_keys(self):
        spec = WorkloadSpec.resolve("oltp")
        cold = run_key(CONFIG, RUN, spec)
        wkey = warm_key(
            CONFIG,
            spec,
            warmup_transactions=RUN.warmup_transactions,
            warmup_seed=WARMUP_PERTURBATION_SEED,
            max_time_ns=RUN.max_time_ns,
        )
        warm = run_key(
            CONFIG,
            dataclasses.replace(RUN, warmup_transactions=0),
            spec,
            checkpoint_digest=f"warm:{wkey}",
        )
        assert cold != warm

    def test_warm_start_rejects_zero_warmup(self):
        run = dataclasses.replace(RUN, warmup_transactions=0)
        with pytest.raises(ValueError, match="warmup"):
            run_space(CONFIG, "oltp", run, 2, warm_start=True)

    def test_warm_start_rejects_explicit_checkpoint(self):
        machine = Machine(CONFIG, make_workload("oltp"))
        machine.run_until_transactions(10, max_time_ns=RUN.max_time_ns)
        ckpt = Checkpoint.capture(machine)
        with pytest.raises(ValueError, match="exclusive"):
            run_space(CONFIG, "oltp", RUN, 2, warm_start=True, checkpoint=ckpt)


class TestWarmCheckpointCache:
    def test_store_roundtrip_and_reuse(self, tmp_path):
        store = RunStore(tmp_path)
        first = warm_checkpoint(
            CONFIG, "oltp", warmup_transactions=20, store=store
        )
        second = warm_checkpoint(
            CONFIG, "oltp", warmup_transactions=20, store=store
        )
        assert first.digest() == second.digest()
        ckpts = list((tmp_path / "checkpoints").glob("*.ckpt"))
        assert len(ckpts) == 1

    def test_cached_warmup_not_rerun(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        warm_checkpoint(CONFIG, "oltp", warmup_transactions=20, store=store)

        def boom(*_args, **_kwargs):
            raise AssertionError("warm-up re-ran despite cache")

        monkeypatch.setattr(Machine, "run_until_transactions", boom)
        warm_checkpoint(CONFIG, "oltp", warmup_transactions=20, store=store)

    def test_corrupt_checkpoint_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        warm_checkpoint(CONFIG, "oltp", warmup_transactions=20, store=store)
        victim = next((tmp_path / "checkpoints").glob("*.ckpt"))
        victim.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            rebuilt = warm_checkpoint(
                CONFIG, "oltp", warmup_transactions=20, store=store
            )
        assert rebuilt.taken_at_transactions >= 20

    def test_matches_manual_warm_protocol(self):
        """The helper is the warm-then-capture protocol, nothing more."""
        from repro.sim.rng import stream_seed

        helper = warm_checkpoint(CONFIG, "oltp", warmup_transactions=20)
        machine = Machine(CONFIG, make_workload("oltp"))
        machine.hierarchy.seed_perturbation(
            stream_seed(WARMUP_PERTURBATION_SEED, "warmup")
        )
        machine.run_until_transactions(20, max_time_ns=30_000_000_000)
        manual = Checkpoint.capture(machine)
        assert helper.digest() == manual.digest()


class TestGetMany:
    def test_returns_only_found_keys(self, tmp_path):
        store = RunStore(tmp_path)
        sample = run_space(CONFIG, "oltp", RUN, 2, store=store)
        keys = store.keys()
        found = store.get_many(keys + ["absent-key"])
        assert set(found) == set(keys)
        assert found[keys[0]].to_dict() in digests(sample)

    def test_empty_input(self, tmp_path):
        assert RunStore(tmp_path).get_many([]) == {}

    def test_corrupt_entry_skipped_with_warning(self, tmp_path):
        store = RunStore(tmp_path)
        run_space(CONFIG, "oltp", RUN, 1, store=store)
        key = store.keys()[0]
        store.path_for(key).write_text("{broken")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get_many([key]) == {}


class TestExecuteShared:
    def _context(self):
        return SharedRunContext(
            config=CONFIG, spec=WorkloadSpec.resolve("oltp"), run=RUN
        )

    def test_sequential_matches_run_simulation(self):
        results, failures = execute_shared(self._context(), [11, 12], n_jobs=1)
        assert failures == []
        direct = run_simulation(
            CONFIG, make_workload("oltp"), dataclasses.replace(RUN, seed=12)
        )
        assert results[12].to_dict() == direct.to_dict()

    def test_timeout_recorded_not_raised(self, monkeypatch):
        import time

        monkeypatch.setattr(
            fanout_mod, "_simulate_resident", lambda _r, _run: time.sleep(5)
        )
        results, failures = execute_shared(
            self._context(), [11], n_jobs=1, timeout_s=0.2
        )
        assert results == {}
        assert [f.kind for f in failures] == ["timeout"]

    def test_on_result_fires_per_completion(self):
        seen = []
        execute_shared(
            self._context(),
            [11, 12],
            n_jobs=1,
            on_result=lambda seed, _r: seen.append(seed),
        )
        assert seen == [11, 12]


class TestFunctionalWarmStart:
    """Checkpoint interchange for fast-forwarded warm state.

    A functionally-warmed checkpoint (:mod:`repro.core.ffwd`) must ship
    through the shared-context fan-out exactly like a timed one --
    parallel equals sequential bit-for-bit -- while caching under keys
    that never alias the timed warm state.
    """

    def test_parallel_matches_sequential(self):
        seq = run_space(
            CONFIG, "oltp", RUN, 4, n_jobs=1, warm_start=True,
            warmup_mode="functional",
        )
        par = run_space(
            CONFIG, "oltp", RUN, 4, n_jobs=2, warm_start=True,
            warmup_mode="functional",
        )
        assert digests(seq) == digests(par)

    def test_functional_checkpoint_through_shared_context(self):
        """from_snapshot rebuilds fast-forwarded state faithfully: the
        fan-out's worker-resident materialization matches running the
        checkpoint directly."""
        ckpt = warm_checkpoint(
            CONFIG, "oltp", warmup_transactions=RUN.warmup_transactions,
            max_time_ns=RUN.max_time_ns, mode="functional",
        )
        measure_run = dataclasses.replace(RUN, warmup_transactions=0)
        context = SharedRunContext(
            config=CONFIG, spec=WorkloadSpec.resolve("oltp"),
            run=measure_run, checkpoint=ckpt,
        )
        results, failures = execute_shared(context, [11, 12], n_jobs=2)
        assert failures == []
        for seed in (11, 12):
            direct = run_simulation(
                CONFIG,
                make_workload("oltp"),
                dataclasses.replace(measure_run, seed=seed),
                checkpoint=ckpt,
            )
            assert results[seed].to_dict() == direct.to_dict()

    def test_modes_sample_distinct_state(self):
        timed = run_space(CONFIG, "oltp", RUN, 2, warm_start=True)
        functional = run_space(
            CONFIG, "oltp", RUN, 2, warm_start=True, warmup_mode="functional"
        )
        assert digests(timed) != digests(functional)

    def test_modes_never_alias_in_store(self, tmp_path):
        store = RunStore(tmp_path)
        run_space(
            CONFIG, "oltp", RUN, 2, warm_start=True, store=store
        )
        timed_keys = set(store.keys())
        run_space(
            CONFIG, "oltp", RUN, 2, warm_start=True, store=store,
            warmup_mode="functional",
        )
        functional_keys = set(store.keys()) - timed_keys
        # disjoint run keys and two separately cached warm checkpoints
        assert len(functional_keys) == 2
        assert store.journal_length() == 4
        ckpts = list((tmp_path / "checkpoints").glob("*.ckpt"))
        assert len(ckpts) == 2

    def test_shipment_key_folds_mode(self):
        base = dict(config=CONFIG, spec=WorkloadSpec.resolve("oltp"), run=RUN)
        timed = SharedRunContext(warmup_mode="timed", **base)
        functional = SharedRunContext(warmup_mode="functional", **base)
        # a worker-resident context is never reused across modes
        assert fanout_mod._shipment(functional)[0] != fanout_mod._shipment(timed)[0]
        assert fanout_mod._shipment(timed) == fanout_mod._shipment(SharedRunContext(**base))

    def test_cold_parallel_functional_warmup(self):
        """Without warm_start each seed pays its own fast-forward leg;
        the fan-out must still equal the sequential path."""
        seq = run_space(
            CONFIG, "oltp", RUN, 3, n_jobs=1, warmup_mode="functional"
        )
        par = run_space(
            CONFIG, "oltp", RUN, 3, n_jobs=2, warmup_mode="functional"
        )
        assert digests(seq) == digests(par)
