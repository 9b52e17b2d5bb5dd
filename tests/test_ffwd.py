"""Functional fast-forward engine: correctness, equivalence, plumbing.

The engine's contract (:mod:`repro.core.ffwd`) has three layers, each
locked here:

- **architectural equivalence where forced**: with one thread on one CPU
  there is no interleaving freedom, so functional and timed execution
  must leave identical cache/directory/lock state and event counters;
- **structural soundness where not**: multi-CPU functional warm-up must
  satisfy the coherence invariants, continue seamlessly under timed
  execution, and round-trip through checkpoints;
- **plumbing**: ``warmup_mode`` threads through ``run_simulation``,
  ``run_space``, campaign keys, and the multi-window sampler, with
  functional runs keyed separately from timed ones.
"""

import dataclasses

import pytest

from repro.config import RunConfig, SystemConfig
from repro.core.request import WorkloadSpec
from repro.core.sampling import multi_window_sample
from repro.probes import (
    CacheTrafficProbe,
    LockContentionProbe,
    ProbeBus,
    ScheduleTraceProbe,
    TransactionLogProbe,
)
from repro.sim.rng import stream_seed
from repro.store import run_key, warm_key
from repro.system.checkpoint import (
    WARMUP_PERTURBATION_SEED,
    Checkpoint,
    warm_checkpoint,
)
from repro.system.machine import Machine
from repro.system.simulation import run_simulation
from repro.workloads.registry import make_workload

MAX_TIME = 10**14
CONFIG = SystemConfig(n_cpus=4)


def build(n_cpus=4, protocol=None, threads_per_cpu=2, seed=1234):
    config = SystemConfig(n_cpus=n_cpus)
    if protocol is not None:
        config = config.with_protocol(protocol)
    machine = Machine(
        config, make_workload("oltp", threads_per_cpu=threads_per_cpu)
    )
    machine.hierarchy.seed_perturbation(seed)
    return machine


def warm_state(machine):
    """Complete architectural warm state, LRU order included."""
    return (
        machine.completed_transactions,
        machine.hierarchy.occupancy(include_order=True),
        machine.locks.occupancy(),
    )


class TestTimedEquivalence:
    """One thread on one CPU: no interleaving freedom, exact agreement."""

    @pytest.mark.parametrize("protocol", ["mosi", "mesi", "moesi"])
    def test_exact_state_agreement(self, protocol):
        timed = build(n_cpus=1, protocol=protocol)
        timed.run_until_transactions(120, max_time_ns=MAX_TIME)
        functional = build(n_cpus=1, protocol=protocol)
        functional.fast_forward_transactions(120, max_time_ns=MAX_TIME)
        assert warm_state(timed) == warm_state(functional)

    def test_exact_counter_agreement(self):
        timed = build(n_cpus=1)
        timed.run_until_transactions(120, max_time_ns=MAX_TIME)
        functional = build(n_cpus=1)
        functional.fast_forward_transactions(120, max_time_ns=MAX_TIME)
        t, f = timed.hierarchy.stats, functional.hierarchy.stats
        for name in (
            "accesses", "l1_hits", "l2_hits", "l2_misses", "upgrades",
            "cache_to_cache", "memory_fetches", "writebacks",
        ):
            assert getattr(t, name) == getattr(f, name), name
        for tc, fc in zip(
            timed.hierarchy.l1d + timed.hierarchy.l2,
            functional.hierarchy.l1d + functional.hierarchy.l2,
        ):
            assert (tc.stats.hits, tc.stats.misses, tc.stats.evictions) == (
                fc.stats.hits, fc.stats.misses, fc.stats.evictions
            )


class TestMultiCpuSoundness:
    @pytest.mark.parametrize("protocol", ["mosi", "mesi", "moesi"])
    def test_coherence_invariants_hold(self, protocol):
        machine = build(n_cpus=8, protocol=protocol)
        machine.fast_forward_transactions(200, max_time_ns=MAX_TIME)
        assert machine.hierarchy.check_coherence_invariants() == []

    def test_deterministic(self):
        first = build(n_cpus=8)
        first.fast_forward_transactions(200, max_time_ns=MAX_TIME)
        second = build(n_cpus=8)
        second.fast_forward_transactions(200, max_time_ns=MAX_TIME)
        assert warm_state(first) == warm_state(second)
        assert first.clock.now == second.clock.now

    def test_timed_continuation(self):
        machine = build(n_cpus=8)
        end = machine.fast_forward_transactions(150, max_time_ns=MAX_TIME)
        assert machine.completed_transactions >= 150
        assert machine.clock.now == end
        target = machine.completed_transactions + 50
        later = machine.run_until_transactions(target, max_time_ns=MAX_TIME)
        assert machine.completed_transactions >= target
        assert later >= end
        assert machine.hierarchy.check_coherence_invariants() == []

    def test_continuation_is_deterministic(self):
        ends = []
        for _ in range(2):
            machine = build(n_cpus=8)
            machine.fast_forward_transactions(150, max_time_ns=MAX_TIME)
            ends.append(
                machine.run_until_transactions(
                    machine.completed_transactions + 50, max_time_ns=MAX_TIME
                )
            )
        assert ends[0] == ends[1]

    def test_timeout_sets_flag(self):
        machine = build(n_cpus=4)
        machine.fast_forward_transactions(10**9, max_time_ns=50_000)
        assert machine.timed_out
        assert machine.completed_transactions < 10**9


class TestCheckpointRoundTrip:
    def test_capture_materialize_continue(self):
        machine = build(n_cpus=4)
        machine.fast_forward_transactions(100, max_time_ns=MAX_TIME)
        ckpt = Checkpoint.capture(machine)
        restored = ckpt.materialize(machine.config)
        assert warm_state(restored) == warm_state(machine)
        target = machine.completed_transactions + 30
        live_end = machine.run_until_transactions(target, max_time_ns=MAX_TIME)
        restored_end = restored.run_until_transactions(
            target, max_time_ns=MAX_TIME
        )
        assert live_end == restored_end
        assert (
            restored.completed_transactions == machine.completed_transactions
        )


class TestProbeCompatibility:
    """Functional mode keeps the probe bus live (op/txn-op hooks aside):
    cache probes fire per functional transaction (latency 0), lock
    probes on block/handoff, sched probes per dispatch, txn probes per
    completion.  See DESIGN.md section 9 for which invariant checkers
    remain meaningful."""

    def _probed_machine(self):
        machine = Machine(CONFIG, make_workload("oltp"))
        machine.hierarchy.seed_perturbation(7)
        traffic = CacheTrafficProbe()
        locks = LockContentionProbe()
        sched = ScheduleTraceProbe()
        txns = TransactionLogProbe()
        machine.attach_probes(
            ProbeBus().attach(traffic).attach(locks).attach(sched).attach(txns)
        )
        return machine, traffic, locks, sched, txns

    def test_probes_fire_during_fast_forward(self):
        machine, traffic, locks, sched, txns = self._probed_machine()
        machine.fast_forward_transactions(80, max_time_ns=MAX_TIME)
        assert sum(traffic.by_source) > 0
        assert len(sched.decisions) == machine.scheduler.dispatches
        assert len(txns.completions) == machine.completed_transactions
        blocks = sum(
            t.stats.lock_blocks for t in machine.scheduler.threads.values()
        )
        assert sum(locks.blocks.values()) == blocks

    def test_probes_do_not_perturb(self):
        probed, *_ = self._probed_machine()
        probed.fast_forward_transactions(80, max_time_ns=MAX_TIME)
        plain = Machine(CONFIG, make_workload("oltp"))
        plain.hierarchy.seed_perturbation(7)
        plain.fast_forward_transactions(80, max_time_ns=MAX_TIME)
        assert warm_state(probed) == warm_state(plain)


class TestWarmupModePlumbing:
    RUN = RunConfig(measured_transactions=30, warmup_transactions=60, seed=9)

    def test_run_simulation_functional_warmup(self):
        functional = run_simulation(
            CONFIG, "oltp", self.RUN, warmup_mode="functional"
        )
        timed = run_simulation(CONFIG, "oltp", self.RUN, warmup_mode="timed")
        assert functional.measured_transactions > 0
        # different (equally valid) initial conditions: the measurement
        # windows genuinely differ
        assert functional.to_dict() != timed.to_dict()

    def test_run_simulation_functional_is_deterministic(self):
        a = run_simulation(CONFIG, "oltp", self.RUN, warmup_mode="functional")
        b = run_simulation(CONFIG, "oltp", self.RUN, warmup_mode="functional")
        assert a.to_dict() == b.to_dict()

    def test_default_mode_unchanged(self):
        implicit = run_simulation(CONFIG, "oltp", self.RUN)
        explicit = run_simulation(CONFIG, "oltp", self.RUN, warmup_mode="timed")
        assert implicit.to_dict() == explicit.to_dict()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="warm-up mode"):
            run_simulation(CONFIG, "oltp", self.RUN, warmup_mode="nope")

    def test_warm_checkpoint_functional(self):
        functional = warm_checkpoint(
            CONFIG, "oltp", warmup_transactions=60, mode="functional"
        )
        timed = warm_checkpoint(CONFIG, "oltp", warmup_transactions=60)
        assert functional.taken_at_transactions >= 60
        assert functional.digest() != timed.digest()

    def test_warm_checkpoint_matches_manual_protocol(self):
        helper = warm_checkpoint(
            CONFIG, "oltp", warmup_transactions=60, mode="functional"
        )
        machine = Machine(CONFIG, make_workload("oltp"))
        machine.hierarchy.seed_perturbation(
            stream_seed(WARMUP_PERTURBATION_SEED, "warmup")
        )
        machine.fast_forward_transactions(60, max_time_ns=30_000_000_000)
        assert helper.digest() == Checkpoint.capture(machine).digest()

    def test_keys_separate_modes(self):
        oltp = WorkloadSpec.resolve("oltp")
        timed_key = run_key(CONFIG, self.RUN, oltp)
        functional_key = run_key(CONFIG, self.RUN, oltp, warmup_mode="functional")
        assert timed_key != functional_key
        # explicit "timed" is the historical key, byte-identical
        assert timed_key == run_key(CONFIG, self.RUN, oltp, warmup_mode="timed")
        common = dict(
            warmup_transactions=60,
            warmup_seed=WARMUP_PERTURBATION_SEED,
            max_time_ns=self.RUN.max_time_ns,
        )
        assert warm_key(CONFIG, oltp, **common) != warm_key(
            CONFIG, oltp, warmup_mode="functional", **common
        )

    def test_campaign_spec_validates_mode(self):
        from repro.campaign.plan import CampaignSpec, cell_request
        from repro.core.runner import WorkloadSpec

        wspec = WorkloadSpec.resolve("oltp")
        base = dict(
            configs=[("base", CONFIG)],
            workloads=[wspec],
            run=self.RUN,
            n_runs=2,
        )
        with pytest.raises(ValueError, match="unknown warmup_mode 'nope'"):
            CampaignSpec(warmup_mode="nope", **base)
        cold = CampaignSpec(warmup_mode="functional", **base)
        assert cell_request(cold, CONFIG, wspec).warmup_mode == "functional"
        warm = CampaignSpec(
            warmup_mode="functional", warm_start=True, **base
        )
        # warm-started cells carry the mode in the warm key instead
        assert cell_request(warm, CONFIG, wspec).warmup_mode == "timed"


class TestMultiWindowSampling:
    RUN = RunConfig(measured_transactions=25, warmup_transactions=80, seed=5)

    def test_yields_enough_valid_samples(self):
        sample = multi_window_sample(CONFIG, "oltp", self.RUN, n_windows=4)
        assert sample.n_valid >= 3
        assert len(sample.values) == sample.n_valid
        assert all(v > 0 for v in sample.values)

    def test_feeds_confidence_machinery(self):
        sample = multi_window_sample(CONFIG, "oltp", self.RUN, n_windows=4)
        ci = sample.interval(0.95)
        assert ci.n == sample.n_valid
        assert ci.half_width >= 0
        assert min(sample.values) <= ci.mean <= max(sample.values)

    def test_deterministic(self):
        a = multi_window_sample(CONFIG, "oltp", self.RUN, n_windows=3)
        b = multi_window_sample(CONFIG, "oltp", self.RUN, n_windows=3)
        assert a.values == b.values
        assert [w.start_ns for w in a.windows] == [
            w.start_ns for w in b.windows
        ]

    def test_windows_advance_monotonically(self):
        sample = multi_window_sample(CONFIG, "oltp", self.RUN, n_windows=3)
        for earlier, later in zip(sample.windows, sample.windows[1:]):
            assert later.start_ns >= earlier.end_ns

    def test_from_checkpoint(self):
        ckpt = warm_checkpoint(
            CONFIG, "oltp", warmup_transactions=60, mode="functional"
        )
        run = dataclasses.replace(self.RUN, warmup_transactions=0)
        sample = multi_window_sample(
            CONFIG, "oltp", run, n_windows=3, checkpoint=ckpt
        )
        assert sample.n_valid == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n_windows"):
            multi_window_sample(CONFIG, "oltp", self.RUN, n_windows=0)
        with pytest.raises(ValueError, match="warm-up mode"):
            multi_window_sample(
                CONFIG, "oltp", self.RUN, n_windows=2, warmup_mode="nope"
            )
