"""Differential checks: two implementations, one answer.

Two places where the codebase has independent implementations of the
same semantics, so disagreement is a bug in one of them:

- **Core models.**  The simple blocking core and the OOO core assign
  different *timing* to an op stream, but for a single thread on a
  single CPU (no contention, no preemption-order effects) they must
  consume the identical op stream and therefore drive the identical
  memory-access sequence: every hierarchy event counter must match
  exactly.  Timing differences that leaked into *event counts* would
  mean the core model is changing what the program does, not how fast.

- **Checkpoint restore.**  A machine restored from a mid-run checkpoint
  and the live machine it was captured from must produce bit-identical
  continuations: same completion times, same transaction log, same
  hierarchy event deltas.  Divergence means some piece of state escaped
  ``snapshot``/``restore``.

- **Functional fast-forward.**  The fast-forward engine
  (:mod:`repro.core.ffwd`) re-implements the execution loop without
  timing; with one thread on one CPU there is no interleaving freedom,
  so timed and functional execution must leave the *identical* warm
  state: same cache/directory/lock occupancy, same event counters.
  Divergence means the functional path changed what the program does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig, SystemConfig
from repro.sim.rng import stream_seed
from repro.system.checkpoint import Checkpoint
from repro.system.machine import Machine
from repro.workloads.registry import make_workload

#: hierarchy counters that must agree (everything except the timing-only
#: perturbation total, which legitimately differs when miss *order*
#: interleaves differently -- with one thread it matches too, so keep it)
COUNTER_FIELDS = (
    "accesses",
    "l1_hits",
    "l2_hits",
    "l2_misses",
    "cache_to_cache",
    "memory_fetches",
    "upgrades",
    "writebacks",
)


@dataclass
class DifferentialResult:
    """Outcome of one differential check.

    ``mismatches`` fail the check; ``notes`` are report-only
    observations (e.g. expected LRU-order divergence) that never do.
    """

    name: str
    mismatches: list[str]
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        lines = [f"{self.name}: {status}"]
        lines.extend(f"  {m}" for m in self.mismatches)
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _counters(machine: Machine) -> dict[str, int]:
    stats = machine.hierarchy.stats
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


def _run_counters(
    config: SystemConfig, workload_name: str, transactions: int, seed: int
) -> tuple[dict[str, int], int]:
    """Run one machine to ``transactions`` and return (counters, completed)."""
    workload = make_workload(workload_name, threads_per_cpu=1)
    machine = Machine(config, workload)
    machine.hierarchy.seed_perturbation(stream_seed(seed, "perturbation"))
    machine.run_until_transactions(
        transactions, max_time_ns=RunConfig().max_time_ns
    )
    return _counters(machine), machine.completed_transactions


def check_core_model_agreement(
    workloads: tuple[str, ...] = ("oltp", "apache", "specjbb"),
    transactions: int = 8,
    seed: int = 1,
) -> DifferentialResult:
    """Simple vs. OOO core on identical op streams: event counts must match.

    Uses one thread on one CPU so the op stream -- and hence the memory
    access sequence -- is independent of core timing.  (With multiple
    threads, timing changes interleaving and the counters legitimately
    diverge; that regime is covered by the invariant checkers instead.)
    """
    mismatches = []
    base = SystemConfig(n_cpus=1)
    for workload_name in workloads:
        simple_counts, simple_done = _run_counters(
            base, workload_name, transactions, seed
        )
        ooo_counts, ooo_done = _run_counters(
            base.with_rob_entries(32), workload_name, transactions, seed
        )
        if simple_done != ooo_done:
            mismatches.append(
                f"{workload_name}: simple completed {simple_done} transactions, "
                f"ooo completed {ooo_done}"
            )
        for field in COUNTER_FIELDS:
            if simple_counts[field] != ooo_counts[field]:
                mismatches.append(
                    f"{workload_name}: {field} simple={simple_counts[field]} "
                    f"ooo={ooo_counts[field]}"
                )
    return DifferentialResult(name="core-model agreement", mismatches=mismatches)


def check_checkpoint_convergence(
    workload_name: str = "oltp",
    warm_transactions: int = 10,
    continue_transactions: int = 10,
    seed: int = 2,
) -> DifferentialResult:
    """Restored checkpoint vs. live continuation: bit-identical futures.

    Warm a machine, capture it, then run both the live machine and a
    restored copy to the same machine-lifetime transaction target.  End
    time, transaction log, and hierarchy event *deltas* (a restored
    hierarchy starts with fresh stats) must all match.
    """
    config = SystemConfig(n_cpus=4)
    max_time = RunConfig().max_time_ns
    machine = Machine(config, make_workload(workload_name))
    machine.hierarchy.seed_perturbation(stream_seed(seed, "perturbation"))
    machine.run_until_transactions(warm_transactions, max_time_ns=max_time)
    checkpoint = Checkpoint.capture(machine)
    at_capture = _counters(machine)

    target = machine.completed_transactions + continue_transactions
    machine.transaction_log = []
    live_end = machine.run_until_transactions(target, max_time_ns=max_time)
    live_delta = {
        name: count - at_capture[name]
        for name, count in _counters(machine).items()
    }

    restored = checkpoint.materialize(config)
    restored.transaction_log = []
    restored_end = restored.run_until_transactions(target, max_time_ns=max_time)

    mismatches = []
    if restored_end != live_end:
        mismatches.append(
            f"continuation end time: live {live_end} ns, restored "
            f"{restored_end} ns"
        )
    if restored.completed_transactions != machine.completed_transactions:
        mismatches.append(
            f"completed transactions: live {machine.completed_transactions}, "
            f"restored {restored.completed_transactions}"
        )
    if restored.transaction_log != machine.transaction_log:
        mismatches.append(
            f"transaction logs diverge: live {len(machine.transaction_log)} "
            f"entries vs restored {len(restored.transaction_log)} "
            "(or differing content)"
        )
    restored_delta = _counters(restored)
    for name in COUNTER_FIELDS:
        if restored_delta[name] != live_delta[name]:
            mismatches.append(
                f"{name} delta: live {live_delta[name]}, restored "
                f"{restored_delta[name]}"
            )
    return DifferentialResult(
        name="checkpoint convergence", mismatches=mismatches
    )


def check_functional_warmup_agreement(
    workload_name: str = "oltp",
    transactions: int = 120,
    seed: int = 3,
    stress_cpus: int = 4,
) -> DifferentialResult:
    """Functional vs. timed warm-up: identical warm state where forced.

    With one thread on one CPU the execution order admits no freedom, so
    the fast-forward engine must reproduce timed execution exactly:
    cache/directory/lock occupancy (set-of-blocks equality) and every
    hierarchy counter.  LRU *order* is also compared but only reported
    -- replacement order is warm-state detail the sampling methodology
    does not rely on.

    A second leg warms ``stress_cpus`` processors functionally -- where
    interleaving legitimately differs from timed execution -- and
    requires the coherence invariants to hold on the resulting state
    (occupancy there is reported, never compared for equality).
    """
    config = SystemConfig(n_cpus=1)
    max_time = RunConfig().max_time_ns
    mismatches: list[str] = []
    notes: list[str] = []

    def build(cfg: SystemConfig) -> Machine:
        machine = Machine(cfg, make_workload(workload_name, threads_per_cpu=1))
        machine.hierarchy.seed_perturbation(stream_seed(seed, "warmup"))
        return machine

    timed = build(config)
    timed.run_until_transactions(transactions, max_time_ns=max_time)
    functional = build(config)
    functional.fast_forward_transactions(transactions, max_time_ns=max_time)

    if timed.completed_transactions != functional.completed_transactions:
        mismatches.append(
            f"completed transactions: timed {timed.completed_transactions}, "
            f"functional {functional.completed_transactions}"
        )
    occ_timed = timed.hierarchy.occupancy()
    occ_functional = functional.hierarchy.occupancy()
    if occ_timed != occ_functional:
        for node_key in occ_timed:
            if occ_timed[node_key] != occ_functional.get(node_key):
                mismatches.append(
                    f"occupancy diverges at {node_key!r} "
                    "(timed vs functional warm-up)"
                )
    if timed.locks.occupancy() != functional.locks.occupancy():
        mismatches.append("lock occupancy diverges (timed vs functional warm-up)")
    timed_counts = _counters(timed)
    functional_counts = _counters(functional)
    for name in COUNTER_FIELDS:
        if timed_counts[name] != functional_counts[name]:
            mismatches.append(
                f"{name}: timed={timed_counts[name]} "
                f"functional={functional_counts[name]}"
            )
    # Replacement order: report-only.
    if not mismatches and (
        timed.hierarchy.occupancy(include_order=True)
        != functional.hierarchy.occupancy(include_order=True)
    ):
        notes.append("LRU order diverges (content matches; report-only)")

    stress = Machine(
        SystemConfig(n_cpus=stress_cpus), make_workload(workload_name)
    )
    stress.hierarchy.seed_perturbation(stream_seed(seed, "warmup"))
    stress.fast_forward_transactions(transactions, max_time_ns=max_time)
    for problem in stress.hierarchy.check_coherence_invariants():
        mismatches.append(f"{stress_cpus}-cpu functional warm-up: {problem}")

    return DifferentialResult(
        name="functional warm-up agreement", mismatches=mismatches, notes=notes
    )
