"""``Machine.clone()``: the per-seed, per-pass copy of a pristine machine.

A clone must be indistinguishable from ``Checkpoint.materialize`` of the
same state (same digest, same measured results) while sharing nothing
mutable with the machine it came from -- cache lines and directory
entries are ints in per-machine dicts, everything else is rebuilt through
snapshot/restore.  The counting tests pin *how often* the two are used:
one materialize per context, one clone per seed or sampling pass.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RunConfig, SystemConfig
from repro.core import fanout as fanout_mod
from repro.core import livesample
from repro.core.fanout import SharedRunContext, execute_shared
from repro.core.request import RunRequest, WorkloadSpec, execute_request
from repro.memory.hierarchy import MemoryHierarchy
from repro.probes import ProbeBus
from repro.system.checkpoint import Checkpoint, warm_checkpoint
from repro.system.machine import Machine
from repro.system.simulation import measure_machine
from repro.workloads.registry import available_workloads, make_workload

MAX_NS = 10**13
SIMPLE = SystemConfig(n_cpus=2)
OOO = SIMPLE.with_rob_entries(32)


def _workload(name: str):
    params = {} if name in ("barnes", "ocean") else {"threads_per_cpu": 2}
    return make_workload(name, **params)


def _machine(name: str, config: SystemConfig, warm: bool) -> Machine:
    if not warm:
        return Machine(config, _workload(name))
    txns = 1 if name in ("barnes", "ocean") else 12
    return warm_checkpoint(
        config, _workload(name), warmup_transactions=txns, max_time_ns=MAX_NS
    ).materialize(config)


def _digest(machine: Machine) -> str:
    return Checkpoint.capture(machine).digest()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("config", [SIMPLE, OOO], ids=["simple", "ooo"])
@pytest.mark.parametrize("name", available_workloads())
def test_clone_digest_equals_original(name, config, warm):
    machine = _machine(name, config, warm)
    assert _digest(machine.clone()) == _digest(machine)


# ----------------------------------------------------------------------
# Independence: the structural-sharing hazard
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def warm_ooo():
    config = SystemConfig(n_cpus=4).with_rob_entries(64)
    checkpoint = warm_checkpoint(
        config, make_workload("oltp", threads_per_cpu=2), warmup_transactions=150
    )
    return config, checkpoint


RUN = RunConfig(measured_transactions=25, warmup_transactions=0, seed=9, max_time_ns=MAX_NS)


def _measure(machine, config, run=RUN):
    return measure_machine(machine, config, run, collect_transaction_times=True).to_dict()


def test_running_a_clone_leaves_the_original_untouched(warm_ooo):
    config, checkpoint = warm_ooo
    pristine = checkpoint.materialize(config)
    before = _digest(pristine)
    first = _measure(pristine.clone(), config)
    assert _digest(pristine) == before == checkpoint.digest()
    # same seed from the same pristine machine: same run, bit for bit,
    # and the run the checkpoint path produces
    assert _measure(pristine.clone(), config) == first
    assert _measure(checkpoint.materialize(config), config) == first
    # a different seed is a different run (the clones are really perturbed)
    other = dataclasses.replace(RUN, seed=10)
    assert _measure(pristine.clone(), config, other) != first


def test_clone_shares_no_mutable_table(warm_ooo):
    config, checkpoint = warm_ooo
    machine = checkpoint.materialize(config)
    clone = machine.clone()
    mine, theirs = machine.hierarchy, clone.hierarchy
    assert mine is not theirs
    for level in ("l1i", "l1d", "l2"):
        for a, b in zip(getattr(mine, level), getattr(theirs, level)):
            assert a is not b and a.stats is not b.stats and a.stats == b.stats
            assert a._sets is not b._sets
            assert all(x is not y for x, y in zip(a._sets, b._sets))
            assert a._sets == b._sets
            assert [list(x) for x in a._sets] == [list(y) for y in b._sets]  # LRU order
    for table in ("_owner", "_sharers", "_block_busy"):
        assert getattr(mine, table) is not getattr(theirs, table)
        assert getattr(mine, table) == getattr(theirs, table)
        assert list(getattr(mine, table)) == list(getattr(theirs, table))
    assert all(type(v) is int for v in mine._sharers.values())
    assert mine._perturb is not theirs._perturb
    assert mine.crossbar is not theirs.crossbar and mine.dram is not theirs.dram
    for a, b in zip(machine.cores, clone.cores):
        assert a is not b
        for x, y in (
            (a.yags.choice._counters, b.yags.choice._counters),
            (a.yags.taken_cache._counters, b.yags.taken_cache._counters),
            (a.yags.not_taken_cache._counters, b.yags.not_taken_cache._counters),
            (a.yags._taken_tags, b.yags._taken_tags),
            (a.yags._not_taken_tags, b.yags._not_taken_tags),
            (a.indirect._first, b.indirect._first),
            (a.indirect._second, b.indirect._second),
            (a.indirect._order, b.indirect._order),
            (a.ras._stack, b.ras._stack),
        ):
            assert x is not y and x == y
    for tid, thread in machine.scheduler.threads.items():
        twin = clone.scheduler.threads[tid]
        assert thread is not twin and thread.program is not twin.program
        assert thread.op_buffer is not twin.op_buffer
        assert thread.op_buffer == twin.op_buffer
        assert thread.branch_ctx is not twin.branch_ctx
    assert machine.workload is not clone.workload
    assert vars(machine.workload) == vars(clone.workload)
    assert machine.events is not clone.events and machine.locks is not clone.locks
    assert machine.scheduler is not clone.scheduler


def test_dropped_machine_is_freed_without_the_cycle_collector(warm_ooo):
    """A clone per seed and per pass is only cheap in memory if a dropped
    machine dies by reference count: nothing may tie it into a cycle."""
    import gc
    import weakref

    config, checkpoint = warm_ooo
    machine = checkpoint.materialize(config).clone()
    _measure(machine, config)
    gc.disable()
    try:
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        gc.enable()


def test_clone_requires_detached_probes():
    machine = Machine(SIMPLE, _workload("oltp"))
    machine.attach_probes(ProbeBus())
    with pytest.raises(ValueError, match="probes"):
        machine.clone()
    with pytest.raises(ValueError, match="probes"):
        machine.freeze()
    machine.detach_probes()
    assert _digest(machine.clone()) == _digest(machine)


# ----------------------------------------------------------------------
# Hierarchy copies behave as independently restored hierarchies
# ----------------------------------------------------------------------
HCONFIG = SystemConfig(n_cpus=4)
_accesses = st.lists(
    st.tuples(
        st.integers(0, 3),  # node
        st.integers(0, 95),  # block (few enough to collide and evict)
        st.booleans(),  # write
        st.booleans(),  # instruction fetch (reads only)
        st.booleans(),  # which twin takes it
    ),
    max_size=120,
)


def _apply(hierarchy, node, block, write, fetch, now):
    # Blocks stride the L2 set count so that capacity victims appear too.
    address = 0x10_0000 + (block % 8) * 64 + (block // 8) * HCONFIG.l2.n_sets * 64
    fetch = fetch and not write
    return hierarchy.access(node, address, write, now, fetch)


@settings(max_examples=40, deadline=None)
@given(warm=_accesses, tail=_accesses, protocol=st.sampled_from(["mosi", "mesi", "moesi"]))
def test_property_copies_match_restored_hierarchies(warm, tail, protocol):
    config = HCONFIG.with_protocol(protocol)
    source = MemoryHierarchy(config)
    source.seed_perturbation(5)
    for now, (node, block, write, fetch, _) in enumerate(warm):
        _apply(source, node, block, write, fetch, now * 50)
    frozen = source.snapshot()

    copies, restored = [], []
    for _ in range(2):
        copy = MemoryHierarchy(config)
        copy.copy_state_from(source)
        copies.append(copy)
        rebuilt = MemoryHierarchy(config)
        rebuilt.restore_state(frozen)
        restored.append(rebuilt)
    assert all(h.snapshot() == frozen for h in copies + restored)

    for step, (node, block, write, fetch, second) in enumerate(tail):
        now = (len(warm) + step) * 50
        twin = int(second)
        assert _apply(copies[twin], node, block, write, fetch, now) == _apply(
            restored[twin], node, block, write, fetch, now
        )
    for copy, rebuilt in zip(copies, restored):
        assert copy.snapshot() == rebuilt.snapshot()
        assert copy.occupancy(include_order=True) == rebuilt.occupancy(include_order=True)
        assert dataclasses.asdict(copy.stats) == dataclasses.asdict(rebuilt.stats)
        assert copy.check_coherence_invariants() == []
    assert source.snapshot() == frozen  # neither copy wrote through


# ----------------------------------------------------------------------
# How often: one materialize per context, one clone per seed / per pass
# ----------------------------------------------------------------------
@pytest.fixture
def counts(monkeypatch):
    calls = {"materialize": 0, "clone": 0, "survey": 0, "passes": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(Checkpoint, "materialize", "materialize")
    counting(Machine, "clone", "clone")
    counting(livesample, "_survey", "survey")
    counting(livesample, "_fresh_machine", "passes")
    return calls


LIVE_RUN = RunConfig(measured_transactions=40, warmup_transactions=0, seed=3, max_time_ns=MAX_NS)


def test_resident_materializes_once_and_clones_per_seed(warm_ooo, counts):
    config, checkpoint = warm_ooo
    template = RunRequest(config, WorkloadSpec.resolve(_workload("oltp")), RUN, "ckpt")
    context = SharedRunContext.from_request(template, checkpoint)
    results, failures = execute_shared(context, list(range(8)), n_jobs=1)
    assert len(results) == 8 and not failures
    assert counts["materialize"] == 1
    assert counts["clone"] == 8


def test_cold_resident_boots_once_and_clones_per_seed(counts, monkeypatch):
    boots = []
    original = Machine.__init__

    def init(self, config, workload, *, build_threads=True):
        boots.append(build_threads)
        original(self, config, workload, build_threads=build_threads)

    monkeypatch.setattr(Machine, "__init__", init)
    run = RunConfig(measured_transactions=10, warmup_transactions=5, seed=1, max_time_ns=MAX_NS)
    template = RunRequest(SIMPLE, WorkloadSpec.resolve(_workload("oltp")), run)
    results, failures = execute_shared(
        SharedRunContext.from_request(template), [1, 2, 3], n_jobs=1
    )
    assert len(results) == 3 and not failures
    assert boots.count(True) == 1  # one cold boot; the clones restore
    assert counts["clone"] == 3 and counts["materialize"] == 0


def test_live_cell_materializes_once_and_clones_per_pass(warm_ooo, counts):
    config, checkpoint = warm_ooo
    template = RunRequest(
        config, WorkloadSpec.resolve(_workload("oltp")), LIVE_RUN, "ckpt", sampling_mode="live"
    )
    context = SharedRunContext.from_request(template, checkpoint)
    results, failures = execute_shared(context, [3, 4, 5], n_jobs=1)
    assert len(results) == 3 and not failures
    assert counts["materialize"] == 1
    assert counts["survey"] == 1  # the scout is shared by the cell's seeds
    assert counts["passes"] > 3  # survey + at least a pilot pass per seed
    assert counts["clone"] == counts["passes"]


def test_execute_request_live_materializes_once(warm_ooo, counts):
    config, checkpoint = warm_ooo
    request = RunRequest(
        config, WorkloadSpec.resolve(_workload("oltp")), LIVE_RUN, "ckpt", sampling_mode="live"
    )
    result = execute_request(request, checkpoint)
    assert counts["materialize"] == 1
    assert counts["clone"] == counts["passes"] >= 2
    # ... and it is the run the fan-out resident produces for that seed
    context = SharedRunContext.from_request(request, checkpoint)
    shared, _ = execute_shared(context, [LIVE_RUN.seed], n_jobs=1)
    assert shared[LIVE_RUN.seed].to_dict() == result.to_dict()


def test_inline_adaptive_live_cell_opens_its_context_once(tmp_path, counts, monkeypatch):
    """An in-process adaptive cell issues several seed orders with one
    context object; they share one resident (one materialize, one survey),
    as a pool worker's batches do by shipment key."""
    from repro.campaign import Campaign, CampaignSpec
    from repro.core.sampling import AdaptiveStopRule
    from repro.store import RunStore

    residents = []
    run_jobs = fanout_mod._run_jobs

    def spy(resident, jobs, timeout_s):
        residents.append(resident)
        return run_jobs(resident, jobs, timeout_s)

    monkeypatch.setattr(fanout_mod, "_run_jobs", spy)
    spec = CampaignSpec(
        configs=[("base", SystemConfig(n_cpus=4))],
        workloads=[WorkloadSpec.resolve("oltp", workload_params={"threads_per_cpu": 2})],
        run=RunConfig(measured_transactions=40, warmup_transactions=30, seed=3,
                      max_time_ns=MAX_NS),
        n_runs=99,
        warm_start=True,
        sampling_mode="live",
        stop_rule=AdaptiveStopRule(target_fraction=1e-9, min_runs=2, max_runs=6, batch_size=2),
    )
    report = Campaign(spec, RunStore(tmp_path), n_jobs=1).run()
    assert report.cells[0].executed == 6
    assert len(residents) == 3  # three batches of two ...
    assert all(resident is residents[0] for resident in residents)  # ... one resident
    assert counts["materialize"] == 1
    assert counts["survey"] == 1


def test_run_space_inline_materializes_once_and_clones_per_seed(tmp_path, counts, monkeypatch):
    """``run_space(n_jobs=1)`` is the in-process campaign cell: an 8-seed
    warm-started sample opens its checkpoint once and clones per seed
    (its old sequential leg re-materialized per seed), and a fully cached
    re-run neither warms up nor runs."""
    from repro.core.runner import run_space
    from repro.store import RunStore
    from repro.system import checkpoint as checkpoint_mod

    warmups = []
    real_warm = checkpoint_mod.warm_checkpoint
    monkeypatch.setattr(
        checkpoint_mod, "warm_checkpoint",
        lambda *args, **kwargs: warmups.append(1) or real_warm(*args, **kwargs),
    )
    run = RunConfig(measured_transactions=10, warmup_transactions=12, seed=1, max_time_ns=MAX_NS)
    kwargs = dict(workload_params={"threads_per_cpu": 2}, warm_start=True, store=RunStore(tmp_path))
    first = run_space(OOO, "oltp", run, 8, **kwargs)
    assert (len(warmups), counts["materialize"], counts["clone"]) == (1, 1, 8)

    def boom(_resident, _run):
        raise AssertionError("a cached run was executed")

    monkeypatch.setattr(fanout_mod, "_simulate_resident", boom)
    again = run_space(OOO, "oltp", run, 8, **kwargs)
    assert (len(warmups), counts["materialize"], counts["clone"]) == (1, 1, 8)
    assert [r.to_dict() for r in again.results] == [r.to_dict() for r in first.results]
