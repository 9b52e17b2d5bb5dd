"""Tests for the runtime verification harness (repro.verify).

Two halves:

- **Positive**: real runs under every checker come back clean, fuzz
  cases double-run to identical digests, differential checks agree, the
  CLI exits 0.
- **Negative** (the part that proves the checkers check anything):
  deliberately corrupt a live machine -- a second Modified copy of a
  block, a stolen mutex, a falsified counter -- and assert the matching
  checker reports it.  A verifier that cannot see injected bugs is
  worse than none.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.memory.coherence import MOSIState
from repro.osmodel.thread import ThreadState
from repro.verify import (
    InvariantViolation,
    attach_invariants,
    check_checkpoint_convergence,
    check_core_model_agreement,
    generate_case,
    run_fuzz,
    run_verify,
)
from repro.verify.fuzz import run_case
from repro.workloads.registry import make_workload
from tests.conftest import small_machine

MAX_NS = 10**13


def checked_machine(**kwargs):
    machine = small_machine(**kwargs)
    return machine, attach_invariants(machine)


class TestInvariantsOnRealRuns:
    @pytest.mark.parametrize("protocol", ["mosi", "mesi", "moesi"])
    def test_clean_on_contended_run(self, protocol):
        from repro.system.machine import Machine

        config = SystemConfig(n_cpus=4).with_protocol(protocol)
        machine = Machine(config, make_workload("oltp", threads_per_cpu=2))
        machine.hierarchy.seed_perturbation(3)
        suite = attach_invariants(machine)
        machine.run_until_transactions(30, max_time_ns=MAX_NS)
        assert suite.finalize() == []
        suite.assert_clean()

    def test_clean_on_barrier_workload(self):
        machine, suite = checked_machine(
            workload=make_workload("barnes"), n_cpus=4
        )
        machine.run_until_transactions(1, max_time_ns=MAX_NS)
        assert suite.finalize() == []

    def test_checked_run_is_bit_identical(self):
        def run(checked):
            machine = small_machine(n_cpus=4, seed_value=11)
            if checked:
                attach_invariants(machine)
            end = machine.run_until_transactions(25, max_time_ns=MAX_NS)
            return (end, machine.clock.now, machine.hierarchy.stats)

        assert run(False) == run(True)

    def test_finalize_is_idempotent(self):
        machine, suite = checked_machine()
        machine.run_until_transactions(5, max_time_ns=MAX_NS)
        assert suite.finalize() == suite.finalize()


class TestInjectedBugs:
    def warm(self, **kwargs):
        machine = small_machine(**kwargs)
        machine.run_until_transactions(10, max_time_ns=MAX_NS)
        return machine

    def test_second_modified_copy_caught(self):
        """The SWMR violation: two nodes both holding a block Modified."""
        machine = self.warm(n_cpus=4)
        hierarchy = machine.hierarchy
        block = next(
            b
            for node in range(4)
            for b in hierarchy.l2[node].resident_blocks()
            if hierarchy.l2[node].peek(b).state == MOSIState.M.value
        )
        owner = hierarchy._owner[block]
        thief = (owner + 1) % 4
        if hierarchy.l2[thief].peek(block) is None:
            hierarchy.l2[thief].insert(block, MOSIState.M.value, dirty=True)
        else:
            hierarchy.l2[thief].set_state(block, MOSIState.M.value)
        suite = attach_invariants(machine)
        suite.coherence.check_block(block)
        assert any("multiple writable copies" in v for v in suite.violations)
        with pytest.raises(InvariantViolation):
            suite.assert_clean()

    def test_directory_owner_mismatch_caught(self):
        machine = self.warm(n_cpus=4)
        hierarchy = machine.hierarchy
        block, owner = next(iter(hierarchy._owner.items()))
        hierarchy._owner[block] = (owner + 1) % 4
        suite = attach_invariants(machine)
        suite.coherence.check_block(block)
        assert any("directory owner" in v for v in suite.violations)

    def test_sharer_set_corruption_caught_at_finalize(self):
        machine = self.warm(n_cpus=4)
        hierarchy = machine.hierarchy
        block = next(iter(hierarchy._sharers))
        hierarchy._sharers[block] |= 1 << 99  # phantom sharer
        suite = attach_invariants(machine)
        assert suite.finalize() != []

    def test_stolen_mutex_caught(self):
        """A lock held by a thread id that does not exist."""
        machine = self.warm(n_cpus=4)
        machine.locks.mutex(12345).holder = 424242
        suite = attach_invariants(machine)
        violations = suite.finalize()
        assert any("unknown" in v and "[lock]" in v for v in violations)

    def test_waiter_in_wrong_state_caught(self):
        machine = self.warm(n_cpus=4)
        mutex = machine.locks.mutex(12346)
        mutex.holder = 0
        ready_tid = next(
            t.tid
            for t in machine.scheduler.threads.values()
            if t.state is not ThreadState.BLOCKED_LOCK
        )
        mutex.waiters.append(ready_tid)
        suite = attach_invariants(machine)
        violations = suite.finalize()
        assert any("[lock]" in v and "waiter" in v for v in violations)

    def test_lost_wakeup_caught(self):
        """A free lock with a queued waiter and no grant in flight."""
        machine = self.warm(n_cpus=4)
        victim = next(iter(machine.scheduler.threads))
        mutex = machine.locks.mutex(12347)
        mutex.waiters.append(victim)
        thread = machine.scheduler.threads[victim]
        thread.state = ThreadState.BLOCKED_LOCK
        thread.blocked_on_lock = 999999  # waits on a *different* lock
        suite = attach_invariants(machine)
        violations = suite.finalize()
        assert any("lost wakeup" in v for v in violations)

    def test_falsified_hit_counter_caught(self):
        machine = self.warm()
        machine.hierarchy.stats.l1_hits += 1
        suite = attach_invariants(machine)
        violations = suite.finalize()
        assert any("[stats]" in v and "accesses" in v for v in violations)

    def test_falsified_thread_transactions_caught(self):
        machine = self.warm()
        next(iter(machine.scheduler.threads.values())).stats.transactions += 3
        suite = attach_invariants(machine)
        assert any("per-thread transactions" in v for v in suite.finalize())

    def test_impossible_cpu_time_caught(self):
        machine = self.warm()
        suite = attach_invariants(machine)
        machine.run_until_transactions(15, max_time_ns=MAX_NS)
        thread = next(iter(machine.scheduler.threads.values()))
        thread.stats.cpu_time_ns += 10**15
        assert any("[sched]" in v for v in suite.finalize())

    def test_backwards_op_time_caught(self):
        machine = self.warm()
        suite = attach_invariants(machine)
        suite.time.on_op(1000, 0, 0, (0, 5, 0x1000))
        suite.time.on_op(500, 0, 0, (0, 5, 0x1000))
        assert any("ran backwards" in v for v in suite.violations)

    def test_violation_log_is_bounded(self):
        from repro.verify.invariants import MAX_VIOLATIONS

        machine = self.warm()
        suite = attach_invariants(machine)
        for i in range(MAX_VIOLATIONS + 50):
            suite.time.on_op(1000 - i, 0, 0, (0, 5, 0x1000))
        suite.time.finalize()
        assert len(suite.time.violations) == MAX_VIOLATIONS + 1
        assert "suppressed" in suite.time.violations[-1]


class TestFuzzer:
    def test_case_generation_is_deterministic(self):
        assert [generate_case(5, i) for i in range(10)] == [
            generate_case(5, i) for i in range(10)
        ]

    def test_different_seeds_differ(self):
        a = [generate_case(1, i) for i in range(8)]
        b = [generate_case(2, i) for i in range(8)]
        assert a != b

    def test_generated_configs_are_valid(self):
        for i in range(30):
            case = generate_case(11, i)
            config = case.config  # construction already validated
            assert config.l1d.size_bytes % (
                config.l1d.associativity * config.l1d.block_bytes
            ) == 0
            assert config.coherence_protocol in ("mosi", "mesi", "moesi")
            assert case.transactions >= 1
            assert "case" in case.describe()

    def test_double_run_matches(self):
        result = run_case(generate_case(1, 0))
        assert result.ok, result.describe_failure()
        assert result.digest_checked == result.digest_bare
        assert result.violations == []

    def test_pair_is_cold_then_hot_and_catches_a_wrong_replayed_branch(self, monkeypatch):
        """The bare run is served by the memos the checked run filled, and a
        memo that replays one wrong branch moves the predictor counters in
        the digest even where end times would agree."""
        from repro.proc import ooo
        from repro.proc.base import branch_memo_stats

        case = next(
            case
            for case in (generate_case(3, i) for i in range(25))
            if case.config.processor.model == "ooo"
        )
        stats = branch_memo_stats()
        assert run_case(case).ok
        assert stats.misses > 0 and stats.hits >= stats.misses

        replay = ooo.sampled_branches

        def wrong_on_a_hit(ctx, samples, stride):
            hits = stats.hits
            words = replay(ctx, samples, stride)
            return (words[0] ^ 4, *words[1:]) if stats.hits > hits else words

        monkeypatch.setattr(ooo, "sampled_branches", wrong_on_a_hit)
        result = run_case(case)
        assert not result.ok and "nondeterminism" in result.describe_failure()

    def test_small_sweep_clean(self):
        report = run_fuzz(4, seed=21)
        assert report.ok, report.render()
        assert len(report.results) == 4
        assert "4 cases" in report.render()


class TestDifferential:
    def test_core_models_agree(self):
        result = check_core_model_agreement(
            workloads=("oltp",), transactions=6
        )
        assert result.ok, result.render()

    def test_checkpoint_converges(self):
        result = check_checkpoint_convergence(
            warm_transactions=8, continue_transactions=8
        )
        assert result.ok, result.render()


class TestRunnerAndCLI:
    def test_run_verify_passes(self):
        report = run_verify(fuzz=2, seed=13)
        assert report.ok, report.render()
        assert "verify: PASS" in report.render()
        assert report.fuzz is not None

    def test_cli_exit_code_zero(self, capsys):
        from repro.cli import main

        assert main(["verify", "--fuzz", "1", "--quiet"]) == 0
        assert "verify: PASS" in capsys.readouterr().out

    def test_cli_json(self, capsys):
        import json

        from repro.cli import main

        assert main(["verify", "--quiet", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["scenarios"]) >= 8
        assert payload["fuzz"] is None
