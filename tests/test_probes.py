"""Tests for the probe bus and its zero-cost attachment contract."""

import pytest

from repro.config import RunConfig, SystemConfig
from repro.isa import OP_MEM, OP_TXN_END
from repro.probes import (
    CacheTrafficProbe,
    LockContentionProbe,
    OpCountProbe,
    ProbeBus,
    ScheduleTraceProbe,
    TransactionLogProbe,
)
from repro.system.machine import Machine
from repro.system.simulation import run_simulation
from repro.workloads.registry import make_workload
from tests.conftest import small_machine as _small_machine


def small_machine(workload_name="oltp", n_cpus=2, seed=7):
    # Probe tests use full-width workloads (the oltp class default of 8
    # threads/cpu), unlike the slimmed conftest default.
    workload = make_workload(workload_name)
    return _small_machine(n_cpus=n_cpus, workload=workload, seed_value=seed)


class TestProbeBus:
    def test_unknown_hook_rejected(self):
        with pytest.raises(ValueError):
            ProbeBus().on("nope", lambda: None)

    def test_merged_empty_is_none(self):
        assert ProbeBus().merged("op") is None

    def test_merged_single_is_the_callback(self):
        def cb(*args):
            pass

        bus = ProbeBus().on_op(cb)
        assert bus.merged("op") is cb

    def test_merged_fans_out_in_registration_order(self):
        seen = []
        bus = ProbeBus()
        bus.on_txn(lambda *a: seen.append(("first", a)))
        bus.on_txn(lambda *a: seen.append(("second", a)))
        bus.merged("txn")(1, 2, 3)
        assert seen == [("first", (1, 2, 3)), ("second", (1, 2, 3))]

    def test_bool_reflects_registration(self):
        bus = ProbeBus()
        assert not bus
        bus.on_sched(lambda *a: None)
        assert bus

    def test_attach_collector_wires_matching_hooks(self):
        bus = ProbeBus()
        probe = LockContentionProbe()
        bus.attach(probe)
        assert bus.callbacks("lock") == [probe.on_lock]
        assert bus.callbacks("op") == []

    def test_attach_hookless_object_rejected(self):
        with pytest.raises(ValueError):
            ProbeBus().attach(object())


class TestMachineIntegration:
    def test_op_probe_sees_every_dispatched_op(self):
        machine = small_machine()
        counter = OpCountProbe()
        machine.attach_probes(ProbeBus().attach(counter))
        machine.run_until_transactions(10, max_time_ns=10**12)
        fetched = sum(t.ops_fetched for t in machine.scheduler.threads.values())
        assert counter.total > 0
        # Every fetched op is dispatched at most once; unconsumed buffer
        # tails account for the difference.
        assert counter.total <= fetched
        assert counter.counts[OP_MEM] > 0
        assert counter.counts[OP_TXN_END] >= 10
        assert counter.by_name()["txn_end"] == counter.counts[OP_TXN_END]

    def test_txn_probe_matches_completed_count(self):
        machine = small_machine()
        log = TransactionLogProbe()
        machine.attach_probes(ProbeBus().attach(log))
        machine.run_until_transactions(12, max_time_ns=10**12)
        assert len(log.completions) == machine.completed_transactions

    def test_lock_probe_counts_match_machine_stats(self):
        machine = small_machine(n_cpus=4)
        contention = LockContentionProbe()
        machine.attach_probes(ProbeBus().attach(contention))
        machine.run_until_transactions(60, max_time_ns=10**12)
        blocks = sum(
            t.stats.lock_blocks for t in machine.scheduler.threads.values()
        )
        assert sum(contention.blocks.values()) == blocks

    def test_sched_probe_counts_dispatches(self):
        machine = small_machine()
        trace = ScheduleTraceProbe()
        machine.attach_probes(ProbeBus().attach(trace))
        machine.run_until_transactions(5, max_time_ns=10**12)
        assert len(trace.decisions) == machine.scheduler.dispatches

    def test_cache_probe_sees_global_transactions(self):
        machine = small_machine()
        traffic = CacheTrafficProbe()
        machine.attach_probes(ProbeBus().attach(traffic))
        machine.run_until_transactions(10, max_time_ns=10**12)
        stats = machine.hierarchy.stats
        expected = stats.cache_to_cache + stats.memory_fetches + stats.upgrades
        assert sum(traffic.by_source) == expected
        assert traffic.reads + traffic.writes == sum(traffic.by_source)

    def test_detach_restores_raw_dispatch(self):
        machine = small_machine()
        raw_table = list(machine._dispatch)
        counter = OpCountProbe()
        machine.attach_probes(ProbeBus().attach(counter))
        assert machine._dispatch != raw_table
        machine.detach_probes()
        assert machine._dispatch == raw_table
        assert machine.probes is None

    def test_empty_bus_installs_nothing(self):
        machine = small_machine()
        raw_table = list(machine._dispatch)
        machine.attach_probes(ProbeBus())
        assert machine._dispatch == raw_table
        assert machine._probe_lock is None
        assert machine.hierarchy._probe_cache is None

    def test_probed_run_is_bit_identical(self):
        """Observation must not perturb the simulation (zero-cost in
        *behaviour*, not just speed)."""

        def run(attach):
            machine = small_machine(n_cpus=4, seed=11)
            if attach:
                bus = ProbeBus()
                for probe in (
                    OpCountProbe(),
                    CacheTrafficProbe(),
                    LockContentionProbe(),
                    ScheduleTraceProbe(),
                    TransactionLogProbe(),
                ):
                    bus.attach(probe)
                machine.attach_probes(bus)
            machine.run_until_transactions(25, max_time_ns=10**12)
            return (machine.clock.now, machine.hierarchy.stats)

        assert run(False) == run(True)

    def test_mid_run_op_probe_attach_is_bit_identical(self):
        """Swapping the dispatch table for op-probe wrappers between two
        legs of one run must neither skip nor re-execute an op: end
        time, transaction log, every counter and the LRU order all match
        a run that was never probed."""

        def run(attach):
            machine = small_machine(n_cpus=4, seed=11)
            machine.transaction_log = []
            seen = []
            # Both runs stop at 15: reaching a target ends that slice, so
            # only equally split runs are comparable.
            machine.run_until_transactions(15, max_time_ns=10**12)
            if attach:
                bus = ProbeBus()
                bus.on_op(lambda now, cpu, tid, op: seen.append(op[0]))
                machine.attach_probes(bus)
            end = machine.run_until_transactions(30, max_time_ns=10**12)
            state = (
                end,
                machine.transaction_log,
                machine.hierarchy.stats,
                machine.hierarchy.occupancy(include_order=True),
                [
                    (t.stats.instructions, t.stats.cpu_time_ns, t.op_index)
                    for t in machine.scheduler.threads.values()
                ],
            )
            return state, seen

        plain, _ = run(False)
        probed, seen = run(True)
        assert seen.count(OP_TXN_END) == 15
        assert probed == plain

    def test_lock_probe_event_kinds(self):
        machine = small_machine(n_cpus=4)
        events = []
        machine.attach_probes(
            ProbeBus().on_lock(lambda ev, now, tid, lock: events.append(ev))
        )
        machine.run_until_transactions(60, max_time_ns=10**12)
        assert set(events) <= {"block", "handoff"}


def _full_collector_bus() -> ProbeBus:
    bus = ProbeBus()
    for probe in (
        OpCountProbe(),
        CacheTrafficProbe(),
        LockContentionProbe(),
        ScheduleTraceProbe(),
        TransactionLogProbe(),
    ):
        bus.attach(probe)
    return bus


def _golden_scenario_digest(name, prepare) -> tuple[str, str]:
    """Run golden scenario ``name`` after ``prepare(machine)``; return
    (digest, committed golden digest).  Reassembles exactly the blob that
    ``golden_digest()`` hashes (no warmup, so the window starts at t=0)."""
    import hashlib

    from repro.sim.rng import stream_seed
    from tests.test_golden_determinism import SCENARIOS, STAT_KEYS, load_golden

    scenario = SCENARIOS[name]
    config = scenario.get("config", lambda: SystemConfig(n_cpus=4))()
    workload = make_workload(scenario["workload"], **scenario["params"])
    machine = Machine(config, workload)
    machine.hierarchy.seed_perturbation(stream_seed(9, "perturbation"))
    machine.transaction_log = []
    prepare(machine)
    end_ns = machine.run_until_transactions(scenario["txns"], max_time_ns=10**13)
    stats = machine.hierarchy.stats
    blob = repr(
        (
            end_ns,
            machine.completed_transactions,
            sorted(
                (t, k) for t, k in machine.transaction_log if 0 <= t <= end_ns
            ),
            [(key, int(getattr(stats, key))) for key in STAT_KEYS],
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest(), load_golden()[name]


class TestGoldenRoundTrip:
    @pytest.mark.parametrize("name", ["oltp", "oltp-mesi"])
    def test_attach_detach_reproduces_golden_digest(self, name):
        """Attaching a full collector bus and detaching it again must leave
        the machine bit-for-bit pristine: the raw dispatch table and every
        probe hook are restored exactly, so the committed golden digest is
        still reproduced."""

        def attach_then_detach(machine):
            machine.attach_probes(_full_collector_bus())
            machine.detach_probes()

        digest, golden = _golden_scenario_digest(name, attach_then_detach)
        assert digest == golden

    @pytest.mark.parametrize("name", ["oltp", "oltp-mesi"])
    def test_probed_run_reproduces_golden_digest(self, name):
        """A run observed by every collector the whole way through still
        reproduces the committed golden digest: probes are transparent in
        behaviour, not just approximately."""
        digest, golden = _golden_scenario_digest(
            name, lambda machine: machine.attach_probes(_full_collector_bus())
        )
        assert digest == golden


class TestRunSimulationIntegration:
    def test_probes_via_run_simulation(self):
        counter = OpCountProbe()
        log = TransactionLogProbe()
        bus = ProbeBus().attach(counter).attach(log)
        result = run_simulation(
            SystemConfig(n_cpus=2),
            "oltp",
            RunConfig(measured_transactions=8, seed=3),
            probes=bus,
        )
        assert result.measured_transactions == 8
        assert counter.total > 0
        assert len(log.completions) == 8
