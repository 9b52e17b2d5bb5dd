"""Engine edge cases: interleave slices, idle CPUs, quantum, barging."""

from repro.probes import ProbeBus
from repro.system.machine import INTERLEAVE_NS
from tests.conftest import CODE, machine_for


class TestSliceBoundaries:
    def test_long_compute_respects_interleave(self):
        """A thread with one huge compute op still yields the event loop
        at slice boundaries (other CPUs' events interleave)."""
        machine = machine_for([("cpu", 10 * INTERLEAVE_NS, CODE)], threads=2, n_cpus=1)
        machine.run_until_transactions(2, max_time_ns=10**10)
        # Both threads completed despite each transaction spanning many
        # slices on one CPU.
        assert machine.completed_transactions >= 2

    def test_io_frees_cpu_for_other_thread(self):
        machine = machine_for([("io", 50_000), ("cpu", 100, CODE)], threads=2, n_cpus=1)
        end = machine.run_until_transactions(10, max_time_ns=10**10)
        # With overlap, ten transactions of 50 us io finish well before
        # 10 x 50 us + compute would serially.
        assert end < 10 * 50_000

    def test_idle_cpu_wakes_on_ready(self):
        machine = machine_for([("io", 30_000)], threads=1, n_cpus=2, repeats=3)
        machine.run_until_transactions(3, max_time_ns=10**10)
        assert machine.completed_transactions == 3


class TestQuantum:
    def test_preemption_shares_cpu(self):
        """Two compute-bound threads on one CPU alternate via quantum
        preemption rather than running to completion back-to-back."""
        machine = machine_for(
            [("cpu", 40_000, CODE)],
            threads=2,
            n_cpus=1,
            repeats=4,
            quantum_ns=10_000,
        )
        machine.transaction_log = []
        machine.run_until_transactions(8, max_time_ns=10**10)
        switches = sum(
            t.stats.context_switches for t in machine.scheduler.threads.values()
        )
        assert switches >= 4

    def test_deadline_mid_buffer_preempts_at_exact_op(self):
        """The quantum deadline is checked before every op: a slice that
        reaches it in the middle of an op buffer (and after several
        interleave-slice re-entries) preempts before the first op that
        would start at or past it -- no op early, no op late."""
        quantum, insns, ops_per_txn = 1_000, 100, 40
        machine = machine_for(
            [("cpu", insns, CODE)] * ops_per_txn,
            threads=2,
            n_cpus=1,
            repeats=1,
            quantum_ns=quantum,
            interleave_ns=500,
        )
        starts, dispatches = [], []
        bus = ProbeBus()
        bus.on_op(lambda now, cpu, tid, op: starts.append((now, tid)))
        bus.on_sched(lambda now, cpu, tid: dispatches.append((now, tid)))
        machine.attach_probes(bus)
        machine.run_until_transactions(2, max_time_ns=10**10)

        switch = machine.config.os.context_switch_ns
        # From the second dispatch on the code block is L1I-resident,
        # so every op costs exactly this much.
        op_cost = insns + machine.config.l1i.hit_latency_ns
        (picked, tid), (next_picked, next_tid) = dispatches[1:3]
        assert tid != next_tid
        run = [now for now, _tid in starts if picked <= now < next_picked]
        expected_ops = -(-(quantum - switch) // op_cost)  # ceil
        assert 0 < expected_ops < ops_per_txn  # the deadline lands mid-buffer
        assert run == [picked + switch + k * op_cost for k in range(expected_ops)]
        assert run[-1] < picked + quantum <= run[-1] + op_cost
        assert next_picked == run[-1] + op_cost + switch

    def test_lone_thread_never_preempted(self):
        machine = machine_for(
            [("cpu", 40_000, CODE)], threads=1, n_cpus=1, repeats=3, quantum_ns=10_000
        )
        machine.run_until_transactions(3, max_time_ns=10**10)
        thread = machine.scheduler.threads[0]
        # Context switches only from voluntary events (none here).
        assert thread.stats.context_switches == 0


class TestBargingEndToEnd:
    def test_contended_lock_makes_progress(self):
        script = [("lock", 5), ("cpu", 2_000, CODE), ("unlock", 5)]
        machine = machine_for(script, threads=4, n_cpus=2, repeats=6)
        machine.run_until_transactions(24, max_time_ns=10**11)
        assert machine.completed_transactions == 24
        mutex = machine.locks.mutex(5)
        assert mutex.holder is None
        assert mutex.contended_acquisitions > 0

    def test_lock_blocks_counted(self):
        script = [("lock", 5), ("io", 20_000), ("unlock", 5)]
        machine = machine_for(script, threads=4, n_cpus=4, repeats=3)
        machine.run_until_transactions(12, max_time_ns=10**11)
        blocks = sum(t.stats.lock_blocks for t in machine.scheduler.threads.values())
        assert blocks > 0


class TestBarriers:
    def test_barrier_synchronizes_threads(self):
        script = [("cpu", 1_000, CODE), ("barrier", 9, 4), ("cpu", 100, CODE)]
        machine = machine_for(script, threads=4, n_cpus=2, repeats=2)
        machine.run_until_transactions(8, max_time_ns=10**11)
        assert machine.completed_transactions == 8
        barrier = machine.locks.barrier(9, 4)
        assert barrier.generation >= 2

    def test_unbalanced_barrier_detected_as_stall(self):
        # Three of four participants: the barrier never releases, all
        # threads block, and the stall detector fires.
        import pytest

        from repro.system.machine import SimulationStall

        script = [("barrier", 9, 4), ("cpu", 100, CODE)]
        machine = machine_for(script, threads=3, n_cpus=2, repeats=1)
        with pytest.raises(SimulationStall):
            machine.run_until_transactions(3, max_time_ns=1_000_000)


class TestYield:
    def test_yield_rotates_threads(self):
        script = [("cpu", 500, CODE), ("yield",)]
        machine = machine_for(script, threads=3, n_cpus=1, repeats=4)
        machine.scheduler.trace_enabled = True
        machine.run_until_transactions(12, max_time_ns=10**10)
        tids = [e.tid for e in machine.scheduler.trace]
        # All three threads get dispatched repeatedly.
        assert set(tids) == {0, 1, 2}
