"""``sim_resident`` and ``sim_missy``: one machine, the bare run loop.

A repetition warms a 4-CPU SimpleCore machine for 500 transactions,
drops the stream memo, then times a *first pass* over N segments of
1000 transactions (every op stream is built and packed) and a *replay
pass* over the same region on a fresh machine in the same process (every
op stream is decoded from the memo).  The simulator is bit-deterministic,
so the state at every segment boundary has one right answer: the two
passes must agree with each other and, at seed 0, with ``expected.json``.

The traced run repeats a quarter of the region about a dozen times,
each time with one layer isolated: generation drained without a
machine, a recorded reference trace replayed through a bare
``MemoryHierarchy``, the functional engine instead of the timed one, an
OOO core instead of SimpleCore, an empty and a recording probe bus.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import SystemConfig
from repro.isa import OP_CPU, OP_LOCK, OP_MEM, OP_UNLOCK
from repro.memory.hierarchy import MemoryHierarchy
from repro.probes import ProbeBus
from repro.sim.events import EV_CORE, EventQueue
from repro.system.machine import Machine
from repro.workloads.base import WorkloadClock, reset_stream_memo, stream_memo_stats
from repro.workloads.registry import make_workload

from benchmarks.ledger import host, spec
from benchmarks.ledger.outcome import Outcome
from benchmarks.ledger.trace import Tracer, span

MAX_TIME_NS = 10**14
N_CPUS = 4


def _config(workload: str, *, ooo: bool = False) -> SystemConfig:
    if workload == "sim_resident":
        config = SystemConfig.paper_scale(n_cpus=N_CPUS)
    else:
        config = SystemConfig(n_cpus=N_CPUS)
    return config.with_rob_entries(64) if ooo else config


def _build(workload: str, seeds: dict, *, ooo: bool = False) -> Machine:
    content = make_workload("oltp", seed=seeds["content"], **spec.SIM_PARAMS[workload])
    machine = Machine(_config(workload, ooo=ooo), content)
    machine.hierarchy.seed_perturbation(seeds["perturbation"])
    return machine


def _ops_consumed(machine: Machine) -> int:
    return sum(
        thread.ops_fetched - (len(thread.op_buffer) - thread.op_index)
        for thread in machine.scheduler.threads.values()
    )


def _boundary(machine: Machine, end_ns: int) -> dict:
    """The simulated state a segment boundary must reproduce exactly."""
    return {
        "txns": machine.completed_transactions,
        "end_ns": end_ns,
        "clock_ns": machine.clock.now,
        "ops": _ops_consumed(machine),
        "stats": dataclasses.asdict(machine.hierarchy.stats),
    }


def _digest(boundary: dict) -> str:
    return hashlib.sha256(json.dumps(boundary, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Pass:
    """One timed pass over the region, segment by segment."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: median segment CPU x segments: what the layer split is taken
    #: against, so one disturbed segment does not land in the residual
    steady_cpu_s: float = 0.0
    ops: int = 0
    events: int = 0
    seg_wall: list = field(default_factory=list)
    seg_cpu: list = field(default_factory=list)
    seg_ops: list = field(default_factory=list)
    boundaries: list = field(default_factory=list)
    machine: Machine | None = None

    def ops_per_s(self) -> float:
        """Median over segments: one slow segment (a collection, a
        neighbour's burst) does not move it, a slower simulator does."""
        return statistics.median(o / w for o, w in zip(self.seg_ops, self.seg_wall))


def _warm(machine: Machine, sizes: dict) -> None:
    machine.run_until_transactions(sizes["warmup_txns"], MAX_TIME_NS)


def _run_pass(machine: Machine, sizes: dict, *, functional: bool = False,
              segments: int | None = None) -> Pass:
    """Advance a warmed machine over the region and time each segment.

    Starts from a collected heap: garbage left by whatever ran before
    (discarded machines are cyclic) otherwise lands in this pass's
    collections and moves its time by 10-30%."""
    gc.collect()
    out = Pass(machine=machine)
    advance = (
        machine.fast_forward_transactions if functional else machine.run_until_transactions
    )
    target = machine.completed_transactions
    ops = _ops_consumed(machine)
    events = machine.events_processed
    for _ in range(segments if segments is not None else sizes["segments"]):
        target += sizes["segment_txns"]
        cpu = time.process_time()
        wall = time.perf_counter()
        end_ns = advance(target, max_time_ns=MAX_TIME_NS)
        out.seg_wall.append(time.perf_counter() - wall)
        out.seg_cpu.append(time.process_time() - cpu)
        now_ops = _ops_consumed(machine)
        out.seg_ops.append(now_ops - ops)
        ops = now_ops
        out.boundaries.append(_boundary(machine, end_ns))
    out.wall_s = sum(out.seg_wall)
    out.cpu_s = sum(out.seg_cpu)
    out.steady_cpu_s = statistics.median(out.seg_cpu) * len(out.seg_cpu)
    out.ops = sum(out.seg_ops)
    out.events = machine.events_processed - events
    return out


def _fresh_pass(workload, seeds, sizes, *, memo_cold, ooo=False, bus=None,
                functional=False, segments=None) -> Pass:
    """Build, warm (untimed) and run one pass.

    A cold memo is dropped *before* the machine is built: programs bind
    their memo bucket at construction, so a later reset would leave this
    machine filling buckets no other machine can see."""
    if memo_cold:
        reset_stream_memo(reset_stats=False)
    machine = _build(workload, seeds, ooo=ooo)
    if bus is not None:
        machine.attach_probes(bus)
    _warm(machine, sizes)
    return _run_pass(machine, sizes, functional=functional, segments=segments)


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def _check_passes(outcome: Outcome, first: Pass, replay: Pass) -> None:
    """Two executions of the same inputs must agree at every boundary."""
    for index, (a, b) in enumerate(zip(first.boundaries, replay.boundaries)):
        outcome.attempt(
            a == b,
            f"segment {index + 1}: replay pass diverged from first pass: "
            f"{_diff(a, b)}",
        )
    outcome.observed = {
        "boundaries": [_digest(b) for b in first.boundaries],
        "final": first.boundaries[-1],
    }


def _diff(a: dict, b: dict) -> str:
    flat_a = {**a, **a.get("stats", {})}
    flat_b = {**b, **b.get("stats", {})}
    return ", ".join(
        f"{key}: {flat_a[key]} != {flat_b[key]}"
        for key in flat_a
        if key != "stats" and flat_a[key] != flat_b.get(key)
    )


def describe_mismatch(expected: dict, observed: dict) -> list[str]:
    """Differences between two ``observed`` records.  A shorter run's
    boundaries are a prefix of a longer one's, so runs of different
    lengths compare over the segments both have."""
    lines = []
    for index, (want, got) in enumerate(
        zip(expected["boundaries"], observed["boundaries"])
    ):
        if want != got:
            lines.append(f"first divergent segment boundary: {index + 1}")
            break
    if len(expected["boundaries"]) == len(observed["boundaries"]):
        final = _diff(expected["final"], observed["final"])
        if final:
            lines.append(f"final state: {final}")
    return lines


# ----------------------------------------------------------------------
# The untraced repetition
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, tracer: Tracer | None,
        scratch: Path) -> Outcome:
    """``scratch`` is unused: the simulator workloads touch no disk."""
    seeds = spec.seeds_of(workload, seed)
    sizes = spec.sim_sizes(workload, seconds, trace=tracer is not None)
    outcome = Outcome(info={"sizes": sizes, "seeds": seeds})
    if tracer is not None:
        return _run_traced(workload, seeds, sizes, outcome, tracer)

    # Set-up: build + warm, three times; the last machine is the one timed.
    setups = []
    machine = None
    for _ in range(3):
        del machine
        reset_stream_memo()  # every set-up generates its warm-up streams
        start = time.perf_counter()
        machine = _build(workload, seeds)
        _warm(machine, sizes)
        setups.append(time.perf_counter() - start)
    outcome.setup_s = statistics.median(setups)

    with host.Region() as first_region:
        first = _run_pass(machine, sizes)
    del machine
    first.machine = None
    replay_machine = _build(workload, seeds)
    _warm(replay_machine, sizes)
    with host.Region() as replay_region:
        replay = _run_pass(replay_machine, sizes)

    _check_passes(outcome, first, replay)
    outcome.metrics.update(
        {
            "wall_s": first_region.wall_s + replay_region.wall_s,
            "cpu_s": first_region.cpu_s + replay_region.cpu_s,
            "sim_ops_per_s": first.ops_per_s(),
            "replay_ops_per_s": replay.ops_per_s(),
        }
    )
    return outcome


# ----------------------------------------------------------------------
# The traced run: one layer isolated at a time
# ----------------------------------------------------------------------
class _Recorder:
    """An ``on_op`` probe keeping every dispatched op with its time and CPU."""

    def __init__(self, warmup_txns: int) -> None:
        self.ops: list[tuple] = []
        self.lock_blocks = 0
        #: ops dispatched when the warm-up's last transaction completed
        self.warm_ops = 0
        self._to_warm = warmup_txns

    def on_op(self, now, cpu, tid, op) -> None:
        self.ops.append((now, cpu, op))

    def on_txn(self, now, tid, type_id) -> None:
        self._to_warm -= 1
        if self._to_warm == 0:
            self.warm_ops = len(self.ops)

    def on_lock(self, event, now, tid, lock_id) -> None:
        if event == "block":
            self.lock_blocks += 1

    @staticmethod
    def references(machine: Machine, ops: list[tuple]) -> list[tuple]:
        """The memory references ``ops`` made, as ``access`` arguments.

        Mirrors the SimpleCore handlers: a CPU op fetches its code block
        after its instructions retire; lock and unlock ops store to the
        lock word."""
        refs = []
        mutex = machine.locks.mutex
        for now, cpu, op in ops:
            kind = op[0]
            if kind == OP_MEM:
                refs.append((cpu, op[1], bool(op[2]), now, False))
            elif kind == OP_CPU:
                refs.append((cpu, op[2], False, now + op[1], True))
            elif kind == OP_LOCK or kind == OP_UNLOCK:
                refs.append((cpu, mutex(op[1]).address, True, now, False))
        return refs


def _replay_refs(access, refs) -> float:
    gc.collect()
    start = time.process_time()
    for cpu, address, is_write, now, is_instruction in refs:
        access(cpu, address, is_write, now, is_instruction)
    return time.process_time() - start


def _no_access(cpu, address, is_write, now, is_instruction) -> None:
    return None


def _drain(workload: str, seeds: dict, skip: int, txns: int) -> tuple[float, int]:
    """Generate ``txns`` transactions round-robin with no machine (CPU s, ops)."""
    content = make_workload("oltp", seed=seeds["content"], **spec.SIM_PARAMS[workload])
    clock = WorkloadClock()
    programs = []
    for tid in range(content.n_threads(N_CPUS)):
        program = content.make_program(tid, clock)
        content.bind_stream_memo(program)
        programs.append(program)

    def pull(first: int, count: int) -> int:
        ops = 0
        for index in range(first, first + count):
            ops += len(programs[index % len(programs)].next_ops(None))
            clock.total_transactions += 1
        return ops

    pull(0, skip)
    gc.collect()
    start = time.process_time()
    ops = pull(skip, txns)
    return time.process_time() - start, ops


def _event_loop(events: int) -> float:
    """schedule + pop, ``events`` times, at a machine-like queue depth."""
    queue = EventQueue()
    for cpu in range(N_CPUS):
        queue.schedule(cpu, EV_CORE, cpu)
    gc.collect()
    start = time.process_time()
    for _ in range(events):
        when, _seq, kind, payload = queue.pop()
        queue.schedule(when + 2000, kind, payload)
    return time.process_time() - start


def _run_traced(workload, seeds, sizes, outcome: Outcome, tracer: Tracer) -> Outcome:
    m = outcome.metrics
    tracer.wrap(Machine, "__init__", "system.machine_build")
    tracer.wrap(Machine, "freeze", "system.freeze")
    tracer.wrap(Machine, "thaw", "system.thaw")
    tracer.wrap(Machine, "clone", "system.clone")
    region_txns = sizes["segments"] * sizes["segment_txns"]
    memo = stream_memo_stats()
    reset_stream_memo()

    with span(tracer, "pass.plain"):
        plain = _fresh_pass(workload, seeds, sizes, memo_cold=True)
    with span(tracer, "pass.replay"):
        replay = _fresh_pass(workload, seeds, sizes, memo_cold=False)
    lookups = memo.hits + memo.misses
    m["workloads.memo_hit_frac"] = memo.hits / lookups if lookups else 0.0
    _check_passes(outcome, plain, replay)

    machine = plain.machine
    transactions = machine.completed_transactions
    m["sim_ops_per_s"] = plain.ops_per_s()
    m["replay_ops_per_s"] = replay.ops_per_s()
    m["trace.first_pass_cpu_s"] = plain.steady_cpu_s
    m["workloads.ops"] = plain.ops
    m["sim.events"] = plain.events
    m["sim.events_per_op"] = plain.events / plain.ops
    m["osmodel.dispatches"] = machine.scheduler.dispatches
    m["osmodel.migrations"] = machine.scheduler.migrations
    m["osmodel.dispatches_per_txn"] = machine.scheduler.dispatches / transactions

    # One explicit freeze/thaw/clone of the warm machine: the simulator
    # workloads never call them, the campaign stack does per seed.
    machine.clone()

    # -- probes: the same region with an op recorder, then an empty bus --
    recorder = _Recorder(sizes["warmup_txns"])
    with span(tracer, "pass.recorded"):
        recorded = _fresh_pass(
            workload, seeds, sizes, memo_cold=True, bus=ProbeBus().attach(recorder)
        )
    outcome.attempt(
        recorded.boundaries == plain.boundaries,
        "probes perturbed the run: recorded pass diverged from the plain pass",
    )
    m["osmodel.lock_blocks"] = recorder.lock_blocks
    m["probes.op_hook_overhead_frac"] = recorded.steady_cpu_s / plain.steady_cpu_s - 1.0
    m["trace.overhead_frac"] = recorded.wall_s / plain.wall_s - 1.0
    with span(tracer, "pass.empty_bus"):
        empty = _fresh_pass(workload, seeds, sizes, memo_cold=True, bus=ProbeBus())
    m["probes.empty_bus_overhead_frac"] = empty.steady_cpu_s / plain.steady_cpu_s - 1.0

    # -- memory: the recorded references through a bare hierarchy -------
    warm_refs = recorder.references(machine, recorder.ops[: recorder.warm_ops])
    region_refs = recorder.references(machine, recorder.ops[recorder.warm_ops :])
    del recorder.ops[:]
    hierarchy = MemoryHierarchy(_config(workload))
    hierarchy.seed_perturbation(seeds["perturbation"])
    _replay_refs(hierarchy.access, warm_refs)
    before = dataclasses.replace(hierarchy.stats)
    with span(tracer, "memory.access"):
        timed_s = _replay_refs(hierarchy.access, region_refs)
    outcome.attempt(
        dataclasses.asdict(hierarchy.stats) == plain.boundaries[-1]["stats"],
        "reference replay is not faithful: bare-hierarchy counters differ "
        "from the machine's",
    )
    functional = MemoryHierarchy(_config(workload))
    functional.seed_perturbation(seeds["perturbation"])
    _replay_refs(functional.access_functional, warm_refs)
    with span(tracer, "memory.access_functional"):
        functional_s = _replay_refs(functional.access_functional, region_refs)
    loop_s = _replay_refs(_no_access, region_refs)
    n_refs = len(region_refs)
    after = hierarchy.stats
    m["memory.refs"] = n_refs
    m["memory.access_ns_per_ref"] = (timed_s - loop_s) / n_refs * 1e9
    m["memory.functional_ns_per_ref"] = (functional_s - loop_s) / n_refs * 1e9
    m["memory.access_s"] = timed_s - loop_s
    m["memory.l1_hit_frac"] = (after.l1_hits - before.l1_hits) / n_refs
    m["memory.l2_miss_per_ref"] = (after.l2_misses - before.l2_misses) / n_refs
    m["memory.c2c_per_ref"] = (after.cache_to_cache - before.cache_to_cache) / n_refs
    m["memory.upgrades_per_ref"] = (after.upgrades - before.upgrades) / n_refs
    del warm_refs, region_refs

    # -- workloads: generation with no machine, memo cold then hot ------
    reset_stream_memo(reset_stats=False)
    with span(tracer, "workloads.gen"):
        gen_s, gen_ops = _drain(workload, seeds, sizes["warmup_txns"], region_txns)
    with span(tracer, "workloads.replay"):
        hot_s, hot_ops = _drain(workload, seeds, sizes["warmup_txns"], region_txns)
    m["workloads.gen_ns_per_op"] = gen_s / gen_ops * 1e9
    m["workloads.replay_ns_per_op"] = hot_s / hot_ops * 1e9
    m["workloads.gen_s"] = gen_s / gen_ops * plain.ops
    m["system.dispatch_s"] = plain.steady_cpu_s - m["workloads.gen_s"] - m["memory.access_s"]

    # -- sim: the event queue alone --------------------------------------
    with span(tracer, "sim.queue"):
        m["sim.queue_ns_per_event"] = _event_loop(plain.events) / plain.events * 1e9

    # -- core.ffwd: the functional engine over the same region ----------
    with span(tracer, "pass.functional"):
        ffwd = _fresh_pass(workload, seeds, sizes, memo_cold=True, functional=True)
    m["core.ffwd.functional_s"] = ffwd.steady_cpu_s
    m["core.ffwd.timed_over_functional"] = plain.steady_cpu_s / ffwd.steady_cpu_s

    # -- proc: the first segment under the OOO core ----------------------
    with span(tracer, "pass.ooo"):
        ooo = _fresh_pass(workload, seeds, sizes, memo_cold=True, ooo=True, segments=1)
    m["proc.ooo_over_simple"] = ooo.cpu_s / plain.seg_cpu[0]

    for layer in ("machine_build", "freeze", "thaw", "clone"):
        m[f"system.{layer}_s"] = tracer.total(f"system.{layer}")
        m[f"system.{layer}.calls"] = tracer.calls(f"system.{layer}")
    return outcome
