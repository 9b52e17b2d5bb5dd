"""Workload variability surveys (the paper's Table 3 as an API).

A survey runs N perturbed simulations of each workload at its own
transaction count and summarizes the space variability of each --
coefficient of variation and range of variability -- so a user can place
*their* workload on the paper's spectrum before deciding how many runs
their experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig, SystemConfig
from repro.core.metrics import VariabilitySummary, summarize
from repro.core.runner import run_space
from repro.system.checkpoint import Checkpoint
from repro.system.machine import Machine
from repro.workloads.registry import available_workloads, make_workload

#: default per-workload (measured transactions, warm-up transactions);
#: scaled counterparts of the paper's Table 3 run lengths
DEFAULT_PLAN: dict[str, tuple[int, int]] = {
    "barnes": (1, 0),
    "ocean": (1, 0),
    "ecperf": (5, 100),
    "slashcode": (30, 400),
    "oltp": (1000, 3000),
    "apache": (600, 1500),
    "specjbb": (800, 1200),
}


@dataclass
class SurveyEntry:
    """One workload's survey result."""

    workload: str
    measured_transactions: int
    warmup_transactions: int
    summary: VariabilitySummary

    @property
    def coefficient_of_variation(self) -> float:
        """CoV (percent) of the workload's run sample."""
        return self.summary.coefficient_of_variation

    @property
    def range_of_variability(self) -> float:
        """Range of variability (percent) of the workload's run sample."""
        return self.summary.range_of_variability


@dataclass
class Survey:
    """A complete variability survey across workloads."""

    entries: list[SurveyEntry] = field(default_factory=list)

    def by_name(self, workload: str) -> SurveyEntry:
        """Look up one workload's entry."""
        for entry in self.entries:
            if entry.workload == workload:
                return entry
        raise KeyError(workload)

    def ranked_by_variability(self) -> list[SurveyEntry]:
        """Entries sorted from most to least space-variable."""
        return sorted(
            self.entries, key=lambda e: e.coefficient_of_variation, reverse=True
        )

    def render(self) -> str:
        """An aligned text table of the survey."""
        from repro.analysis.tables import format_table

        return format_table(
            ["workload", "#txns", "CoV", "range of variability"],
            [
                [
                    entry.workload,
                    entry.measured_transactions,
                    entry.summary.percent(entry.coefficient_of_variation),
                    entry.summary.percent(entry.range_of_variability),
                ]
                for entry in self.entries
            ],
            title="Space-variability survey (paper Table 3 protocol)",
        )


def survey_workload(
    name: str,
    *,
    config: SystemConfig | None = None,
    n_runs: int = 10,
    measured_transactions: int | None = None,
    warmup_transactions: int | None = None,
    seed: int = 100,
) -> SurveyEntry:
    """Survey one workload's space variability.

    Follows the paper's protocol: warm up once, checkpoint, run ``n_runs``
    perturbed simulations from the checkpoint, summarize.
    """
    config = config or SystemConfig()
    default_txns, default_warm = DEFAULT_PLAN.get(name, (200, 300))
    txns = measured_transactions if measured_transactions is not None else default_txns
    warm = warmup_transactions if warmup_transactions is not None else default_warm

    checkpoint = None
    if warm > 0:
        machine = Machine(config, make_workload(name))
        machine.hierarchy.seed_perturbation(8)
        machine.run_until_transactions(warm, max_time_ns=10**13)
        checkpoint = Checkpoint.capture(machine)
    sample = run_space(
        config,
        make_workload(name),
        RunConfig(measured_transactions=txns, seed=seed, max_time_ns=10**13),
        n_runs,
        checkpoint=checkpoint,
    )
    return SurveyEntry(
        workload=name,
        measured_transactions=txns,
        warmup_transactions=warm,
        summary=summarize(sample.values),
    )


def survey_workloads(
    names: list[str] | None = None,
    *,
    config: SystemConfig | None = None,
    n_runs: int = 10,
    seed: int = 100,
) -> Survey:
    """Survey several workloads (all seven by default)."""
    names = names if names is not None else available_workloads()
    return Survey(
        entries=[
            survey_workload(name, config=config, n_runs=n_runs, seed=seed)
            for name in names
        ]
    )
