"""The measurement protocol.

Paper section 3.1: throughput workloads are measured as the (simulated)
time to finish a fixed number of transactions, after a warm-up period;
the performance metric is **cycles per transaction**.  We report the
aggregate-processor form -- elapsed cycles x n_cpus / transactions --
which matches the per-transaction cycle counts the paper shows for both
its real-machine counters (12 processors) and its simulations (16
processors).

Cold-start and end effects (transaction quantization) are real here, as
in the paper: the first measured transaction began before the window and
in-flight transactions remain at the end.  Short runs therefore carry
quantization noise -- which is part of what the methodology must handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig, SystemConfig
from repro.sim.rng import stream_seed
from repro.system.machine import Machine, check_warmup_mode
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload


@dataclass
class SimulationResult:
    """The outcome of one measured simulation run."""

    cycles_per_transaction: float
    elapsed_ns: int
    measured_transactions: int
    start_ns: int
    end_ns: int
    n_cpus: int
    seed: int
    timed_out: bool = False
    #: selected hierarchy / OS counters for analysis
    stats: dict = field(default_factory=dict)
    #: (time_ns, txn_type) completions inside the window, when collected
    transaction_times: list[tuple[int, int]] | None = None
    #: scheduler dispatch trace, when collected (Figure 1)
    schedule_trace: list | None = None

    @property
    def transactions_per_second(self) -> float:
        """Throughput in transactions per simulated second."""
        if self.elapsed_ns == 0:
            return 0.0
        return self.measured_transactions * 1e9 / self.elapsed_ns

    def to_dict(self) -> dict:
        """Plain-data (JSON-serializable) form of this result.

        The run store persists this form; :meth:`from_dict` inverts it
        exactly (tuples become lists in JSON and are restored).
        """
        return {
            "cycles_per_transaction": self.cycles_per_transaction,
            "elapsed_ns": self.elapsed_ns,
            "measured_transactions": self.measured_transactions,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "n_cpus": self.n_cpus,
            "seed": self.seed,
            "timed_out": self.timed_out,
            "stats": dict(self.stats),
            "transaction_times": (
                [[t, k] for t, k in self.transaction_times]
                if self.transaction_times is not None
                else None
            ),
            "schedule_trace": (
                [[e.time_ns, e.cpu, e.tid] for e in self.schedule_trace]
                if self.schedule_trace is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        from repro.osmodel.scheduler import ScheduleEvent

        transaction_times = data.get("transaction_times")
        schedule_trace = data.get("schedule_trace")
        return cls(
            cycles_per_transaction=data["cycles_per_transaction"],
            elapsed_ns=data["elapsed_ns"],
            measured_transactions=data["measured_transactions"],
            start_ns=data["start_ns"],
            end_ns=data["end_ns"],
            n_cpus=data["n_cpus"],
            seed=data["seed"],
            timed_out=data["timed_out"],
            stats=dict(data["stats"]),
            transaction_times=(
                [(t, k) for t, k in transaction_times]
                if transaction_times is not None
                else None
            ),
            schedule_trace=(
                [ScheduleEvent(time_ns=t, cpu=c, tid=tid) for t, c, tid in schedule_trace]
                if schedule_trace is not None
                else None
            ),
        )


def run_simulation(
    config: SystemConfig,
    workload: Workload | str,
    run: RunConfig,
    *,
    checkpoint=None,
    collect_transaction_times: bool = False,
    collect_schedule_trace: bool = False,
    workload_scale: float = 1.0,
    probes=None,
    warmup_mode: str = "timed",
) -> SimulationResult:
    """Execute one measured run and return its result.

    ``checkpoint`` (a :class:`repro.system.checkpoint.Checkpoint`) starts
    the run from captured initial conditions; otherwise the machine boots
    cold.  ``run.seed`` selects the perturbation stream only -- workload
    content is identical across seeds, so the space of runs differs purely
    in injected timing, as in the paper.

    ``probes`` (a :class:`repro.probes.ProbeBus`) attaches instrumentation
    for the whole run, warm-up included; probes observe without
    perturbing, so results are bit-identical with or without them.

    ``warmup_mode="functional"`` executes the warm-up leg through the
    fast-forward engine (:mod:`repro.core.ffwd`) instead of the timed
    event loop; the measurement window is always timed.
    """
    if isinstance(workload, str):
        workload = make_workload(workload, scale=workload_scale)
    if checkpoint is not None:
        machine = checkpoint.materialize(config)
    else:
        machine = Machine(config, workload)
    return measure_machine(
        machine,
        config,
        run,
        collect_transaction_times=collect_transaction_times,
        collect_schedule_trace=collect_schedule_trace,
        probes=probes,
        warmup_mode=warmup_mode,
    )


def measure_machine(
    machine: Machine,
    config: SystemConfig,
    run: RunConfig,
    *,
    collect_transaction_times: bool = False,
    collect_schedule_trace: bool = False,
    probes=None,
    warmup_mode: str = "timed",
) -> SimulationResult:
    """Run the measurement protocol on an already-built machine.

    This is the back half of :func:`run_simulation`, split out so the
    fan-out engine (:mod:`repro.core.fanout`) can measure machines it
    materialized from a worker-resident template; the protocol --
    perturbation seeding, warm-up, window, result assembly -- is the
    single shared implementation either way.

    ``warmup_mode="functional"`` fast-forwards the warm-up leg
    (:mod:`repro.core.ffwd`); timing resumes for the measured window, so
    the reported cycles-per-transaction is always a timed quantity.
    """
    check_warmup_mode(warmup_mode)
    machine.hierarchy.seed_perturbation(stream_seed(run.seed, "perturbation"))
    if probes is not None:
        machine.attach_probes(probes)
    if collect_transaction_times:
        machine.transaction_log = []
    if collect_schedule_trace:
        machine.scheduler.trace_enabled = True

    base = machine.completed_transactions
    start_ns = machine.clock.now
    if run.warmup_transactions:
        start_ns = machine.advance_to_transactions(
            base + run.warmup_transactions, run.max_time_ns, warmup_mode
        )
    start_txns = machine.completed_transactions
    end_ns = machine.run_until_transactions(
        start_txns + run.measured_transactions, max_time_ns=run.max_time_ns
    )
    measured = machine.completed_transactions - start_txns
    elapsed = end_ns - start_ns
    if measured == 0:
        raise ValueError(
            "no transactions completed in the measurement window; "
            "increase max_time_ns or reduce warmup"
        )

    hierarchy = machine.hierarchy.stats
    return SimulationResult(
        cycles_per_transaction=elapsed * config.n_cpus / measured,
        elapsed_ns=elapsed,
        measured_transactions=measured,
        start_ns=start_ns,
        end_ns=end_ns,
        n_cpus=config.n_cpus,
        seed=run.seed,
        timed_out=machine.timed_out,
        stats={
            "l1_hits": hierarchy.l1_hits,
            "l2_hits": hierarchy.l2_hits,
            "l2_misses": hierarchy.l2_misses,
            "l2_miss_rate": hierarchy.l2_miss_rate,
            "cache_to_cache": hierarchy.cache_to_cache,
            "memory_fetches": hierarchy.memory_fetches,
            "upgrades": hierarchy.upgrades,
            "writebacks": hierarchy.writebacks,
            "perturbation_total_ns": hierarchy.perturbation_total_ns,
            "block_race_stalls": hierarchy.block_race_stalls,
            "dispatches": machine.scheduler.dispatches,
            "migrations": machine.scheduler.migrations,
            "crossbar_queue_ns": machine.hierarchy.crossbar.stats.total_queue_ns,
        },
        # Completions are appended in event-processing order, which can
        # differ from timestamp order by up to one interleave slice;
        # sort so windowed analyses see a monotonic stream.
        transaction_times=(
            sorted(
                (t, k) for t, k in machine.transaction_log if start_ns <= t <= end_ns
            )
            if machine.transaction_log is not None
            else None
        ),
        schedule_trace=(
            list(machine.scheduler.trace) if collect_schedule_trace else None
        ),
    )
