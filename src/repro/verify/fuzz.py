"""Seeded config-space fuzzer: random valid configs, checked twice.

``test_golden_determinism.py`` locks nine curated scenarios bit-for-bit.
This module extends the same contract to an unbounded family: a
SplitMix64 stream (:class:`repro.sim.rng.RandomStream`) drives every
choice, so case ``(seed, index)`` is the same configuration forever, on
every machine.  Each case is executed **twice** -- once memo-cold with
the full invariant suite attached and once bare, served by the memos
the first execution filled -- and the two executions must produce
identical sha256 digests over the complete observable outcome (end
time, completion count, transaction log, hierarchy, scheduler, core and
branch-predictor counters).  One sweep therefore checks four things at
once:

1. every invariant holds on a configuration nobody hand-picked,
2. the run is deterministic (re-running cannot diverge),
3. probes are bit-transparent (checking does not perturb), and
4. the stream and branch-batch memos are bit-transparent (a replayed
   transaction or branch batch is the one a cold process computes).

Geometry is generated as sets x ways x block so every ``CacheConfig``
is valid by construction; all levels share one block size because the
hierarchy is indexed on a single global block granularity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.config import (
    CacheConfig,
    OSConfig,
    PerturbationConfig,
    ProcessorConfig,
    RunConfig,
    SystemConfig,
)
from repro.memory.coherence import available_protocols
from repro.sim.rng import RandomStream, stream_seed
from repro.system.machine import Machine, SimulationStall
from repro.verify.invariants import attach_invariants
from repro.workloads.base import reset_stream_memo
from repro.workloads.registry import available_workloads, make_workload

#: single-transaction barrier-phase workloads (one txn spans the run)
_PHASE_WORKLOADS = ("barnes", "ocean")

#: digest-relevant hierarchy counters, in a fixed order
_STAT_FIELDS = (
    "accesses",
    "l1_hits",
    "l2_hits",
    "l2_misses",
    "cache_to_cache",
    "memory_fetches",
    "upgrades",
    "writebacks",
    "perturbation_total_ns",
    "block_race_stalls",
)


@dataclass(frozen=True)
class FuzzCase:
    """One generated configuration point, fully determined by (seed, index)."""

    index: int
    seed: int
    config: SystemConfig
    workload: str
    threads_per_cpu: int
    transactions: int
    max_time_ns: int

    def describe(self) -> str:
        """One-line human-readable summary."""
        proc = self.config.processor
        model = proc.model if proc.model == "simple" else f"ooo/rob{proc.rob_entries}"
        return (
            f"case {self.index}: {self.workload} x{self.threads_per_cpu} on "
            f"{self.config.n_cpus} cpus, {self.config.coherence_protocol}, "
            f"{model}, L1 {self.config.l1d.size_bytes}B/"
            f"{self.config.l1d.associativity}w, L2 {self.config.l2.size_bytes}B/"
            f"{self.config.l2.associativity}w, block {self.config.l2.block_bytes}B, "
            f"perturb {self.config.perturbation.max_ns}ns, "
            f"{self.transactions} txns"
        )


@dataclass
class CaseResult:
    """Outcome of double-running one :class:`FuzzCase`."""

    case: FuzzCase
    digest_checked: str | None = None
    digest_bare: str | None = None
    violations: list[str] | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and not self.violations
            and self.digest_checked == self.digest_bare
        )

    def describe_failure(self) -> str:
        """Multi-line description of what went wrong (empty when ok)."""
        if self.ok:
            return ""
        lines = [self.case.describe()]
        if self.error is not None:
            lines.append(f"  error: {self.error}")
        if self.violations:
            lines.extend(f"  {v}" for v in self.violations)
        if (
            self.digest_checked is not None
            and self.digest_bare is not None
            and self.digest_checked != self.digest_bare
        ):
            lines.append(
                "  nondeterminism: checked run digest "
                f"{self.digest_checked[:16]} != bare run digest "
                f"{self.digest_bare[:16]}"
            )
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing sweep."""

    seed: int
    results: list[CaseResult]

    @property
    def failures(self) -> list[CaseResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """Human-readable summary, one block per failing case."""
        lines = [
            f"fuzz: {len(self.results)} cases, seed {self.seed}: "
            f"{len(self.results) - len(self.failures)} ok, "
            f"{len(self.failures)} failed"
        ]
        for result in self.failures:
            lines.append(result.describe_failure())
        return "\n".join(lines)


def generate_case(seed: int, index: int) -> FuzzCase:
    """Deterministically generate fuzz case ``index`` of stream ``seed``.

    Every generated configuration is valid by construction (cache sizes
    are products of sets x ways x block), so a construction error is a
    fuzzer bug, not a finding.
    """
    stream = RandomStream(stream_seed(seed, "verify-fuzz"), counter=index * 1024)

    def choose(options):
        return options[stream.randint(0, len(options) - 1)]

    n_cpus = choose((1, 2, 4, 8))
    block = choose((32, 64))
    l1_sets = choose((8, 16, 32))
    l1_ways = choose((1, 2, 4))
    l2_sets = choose((32, 64, 128))
    l2_ways = choose((1, 2, 4, 8))
    l1 = CacheConfig(
        size_bytes=l1_sets * l1_ways * block,
        associativity=l1_ways,
        block_bytes=block,
    )
    l2 = CacheConfig(
        size_bytes=l2_sets * l2_ways * block,
        associativity=l2_ways,
        block_bytes=block,
        hit_latency_ns=20,
    )
    if choose((0, 0, 1)):
        processor = ProcessorConfig(model="ooo", rob_entries=choose((16, 32, 64)))
    else:
        processor = ProcessorConfig(model="simple")
    os_config = OSConfig(
        quantum_ns=choose((50_000, 100_000, 200_000)),
        interleave_ns=choose((1_000, 2_000)),
        load_balance=bool(choose((0, 1))),
    )
    config = SystemConfig(
        n_cpus=n_cpus,
        l1i=l1,
        l1d=l1,
        l2=l2,
        processor=processor,
        os=os_config,
        perturbation=PerturbationConfig(max_ns=choose((0, 1, 2, 4, 6))),
        coherence_protocol=choose(tuple(available_protocols())),
    )
    workload = choose(tuple(available_workloads()))
    if workload in _PHASE_WORKLOADS:
        transactions = 1
    else:
        transactions = stream.randint(6, 12)
    return FuzzCase(
        index=index,
        seed=seed,
        config=config,
        workload=workload,
        threads_per_cpu=choose((1, 2)),
        transactions=transactions,
        max_time_ns=RunConfig().max_time_ns,
    )


def _core_counters(core) -> tuple:
    """Retired instructions plus, on an out-of-order core, what each
    predictor was asked and got wrong: two runs that fed the predictors
    different branches disagree here even when their end times agree."""
    counters = [core.instructions_retired]
    for name in ("yags", "indirect", "ras"):
        predictor = getattr(core, name, None)
        if predictor is not None:
            counters += (predictor.predictions, predictor.mispredictions)
    return tuple(counters)


def _digest_state(machine: Machine, end_ns: int) -> str:
    """sha256 over the complete observable outcome of a run."""
    stats = machine.hierarchy.stats
    blob = repr(
        (
            end_ns,
            machine.clock.now,
            machine.completed_transactions,
            machine.transaction_log,
            tuple(getattr(stats, name) for name in _STAT_FIELDS),
            machine.scheduler.dispatches,
            machine.scheduler.migrations,
            tuple(_core_counters(core) for core in machine.cores),
        )
    )
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _run_once(case: FuzzCase, checked: bool) -> tuple[str, list[str]]:
    """Execute one case; return (digest, violations)."""
    workload = make_workload(
        case.workload, threads_per_cpu=case.threads_per_cpu
    )
    machine = Machine(case.config, workload)
    machine.hierarchy.seed_perturbation(stream_seed(case.seed, "perturbation"))
    machine.transaction_log = []
    suite = attach_invariants(machine) if checked else None
    end_ns = machine.run_until_transactions(
        case.transactions, max_time_ns=case.max_time_ns
    )
    violations: list[str] = []
    if suite is not None:
        violations = suite.finalize()
    if machine.timed_out:
        violations = [
            *violations,
            f"[fuzz] timed out before completing {case.transactions} transactions",
        ]
    return _digest_state(machine, end_ns), violations


def run_case(case: FuzzCase) -> CaseResult:
    """Double-run one case: checked and memo-cold, then bare and
    memo-hot; compare digests."""
    result = CaseResult(case=case)
    try:
        reset_stream_memo()
        result.digest_checked, result.violations = _run_once(case, checked=True)
        result.digest_bare, _ = _run_once(case, checked=False)
    except SimulationStall as exc:
        result.error = f"SimulationStall: {exc}"
    except Exception as exc:  # a crash on a valid config is a finding
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_fuzz(n: int, seed: int = 1, progress=None) -> FuzzReport:
    """Run ``n`` fuzz cases from ``seed``'s stream.

    ``progress`` (optional callable) receives each :class:`CaseResult`
    as it completes, for live CLI output.
    """
    results = []
    for index in range(n):
        result = run_case(generate_case(seed, index))
        results.append(result)
        if progress is not None:
            progress(result)
    return FuzzReport(seed=seed, results=results)
