"""The campaign orchestrator.

A :class:`Campaign` executes a :class:`~repro.campaign.plan.CampaignSpec`
against a :class:`~repro.store.RunStore`: it plans the (configuration ×
workload × seed) grid, loads every run the store already holds, executes
only the missing ones through the fault-tolerant executor, and persists
each completion immediately.  Killing a campaign mid-flight therefore
loses only in-flight runs; re-invoking it resumes from the store.

Two sampling modes per cell:

- **fixed-N** (``spec.stop_rule is None``): exactly ``spec.n_runs``
  seeds -- a cell is the same :class:`~repro.core.fanout.CellSampler`
  ``run_space`` drives, so the sample is bit-for-bit the one a direct
  ``run_space`` call with the same inputs returns (and stores);
- **adaptive** (a :class:`~repro.core.sampling.AdaptiveStopRule`): run
  batches and stop as soon as the confidence interval's half-width
  reaches the target fraction of the mean, or at the run cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.campaign.plan import CampaignPlan, CampaignSpec, plan_campaign
from repro.core.confidence import confidence_interval
from repro.core.fanout import CellSampler, run_cells
from repro.core.runner import RunFailure, RunSample, WorkloadSpec
from repro.store import RunStore


@dataclass
class CellResult:
    """Outcome of one (configuration × workload) cell."""

    config_label: str
    workload: str
    sample: RunSample
    cached_hits: int
    executed: int
    failures: list[RunFailure] = field(default_factory=list)
    stop_reason: str = "fixed-N"

    @property
    def n_runs(self) -> int:
        """Completed runs in the cell's sample."""
        return len(self.sample.results)


@dataclass
class CampaignReport:
    """All cell outcomes plus a rendered summary table."""

    cells: list[CellResult]
    confidence: float = 0.95

    @property
    def n_failures(self) -> int:
        """Total failed runs across all cells."""
        return sum(len(cell.failures) for cell in self.cells)

    def sample(self, config_label: str, workload: str) -> RunSample:
        """The sample of one cell (KeyError if absent)."""
        for cell in self.cells:
            if cell.config_label == config_label and cell.workload == workload:
                return cell.sample
        raise KeyError(f"no cell ({config_label!r}, {workload!r})")

    def render(self) -> str:
        """The campaign summary table."""
        from repro.analysis.tables import format_table

        rows = []
        for cell in self.cells:
            if cell.n_runs >= 2:
                summary = cell.sample.summary()
                ci = confidence_interval(cell.sample.values, self.confidence)
                mean = f"{summary.mean:,.0f}"
                cov = f"{summary.coefficient_of_variation:.2f}"
                half = f"{100 * ci.half_width / ci.mean:.2f}"
            elif cell.n_runs == 1:
                mean = f"{cell.sample.values[0]:,.0f}"
                cov = half = "-"
            else:
                mean = cov = half = "-"
            rows.append(
                [
                    cell.config_label,
                    cell.workload,
                    cell.n_runs,
                    cell.cached_hits,
                    cell.executed,
                    len(cell.failures),
                    mean,
                    cov,
                    half,
                    cell.stop_reason,
                ]
            )
        return format_table(
            [
                "config",
                "workload",
                "runs",
                "cached",
                "executed",
                "failed",
                "mean c/txn",
                "CoV%",
                "CI±%",
                "stop",
            ],
            rows,
            title="campaign summary",
        )


class Campaign:
    """Plan, execute, and resume an experiment campaign."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: RunStore | None = None,
        *,
        n_jobs: int = 1,
        timeout_s: float | None = None,
        retries: int = 1,
    ) -> None:
        self.spec = spec
        self.store = store if store is not None else RunStore()
        self.n_jobs = n_jobs
        self.timeout_s = timeout_s
        self.retries = retries

    def plan(self) -> CampaignPlan:
        """Resolve the grid against the store (what ``--dry-run`` shows)."""
        return plan_campaign(self.spec, self.store)

    def run(self, progress=None) -> CampaignReport:
        """Execute every cell, reusing the store; returns the report.

        ``progress`` is an optional ``print``-like callable fed one line
        per executed batch; with ``n_jobs > 1`` cells overlap on one pool
        (:func:`repro.core.fanout.run_cells`), so lines of different
        cells may interleave (``report.cells`` stays in spec order).  A
        ``KeyboardInterrupt`` propagates after completed runs and warm
        checkpoints have been persisted -- rerun to resume.
        """
        cells = run_cells(
            (self._run_cell(*cell, progress) for cell in self.spec.cells()),
            n_jobs=self.n_jobs,
            timeout_s=self.timeout_s,
            retries=self.retries,
        )
        rule = self.spec.stop_rule
        return CampaignReport(
            cells=cells,
            confidence=rule.confidence if rule is not None else 0.95,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_cell(self, label: str, config: SystemConfig, wspec: WorkloadSpec, progress):
        """One cell as a generator of fan-out orders; returns its CellResult.

        The cell's :class:`~repro.core.fanout.CellSampler` does the work
        of each batch; what is left here is which seeds to ask for next
        (all of them, or what the stop rule wants) and the progress lines.
        """
        spec = self.spec
        rule = spec.stop_rule
        sampler = CellSampler(
            spec.request(config, wspec), self.store, warm_start=spec.warm_start,
            config=label, campaign=spec.name,
        )
        results = sampler.results
        issued = 0

        def say(text: str) -> None:
            if progress is not None:
                progress(f"[{label} x {wspec.name}] {text}")

        def collect(count: int):
            nonlocal issued
            seeds = [spec.run.seed + issued + i for i in range(count)]
            issued += count
            done, fails = yield from sampler.collect(seeds)
            pending = len(done) + len(fails)
            if not pending:
                say(f"{len(seeds)} runs served from store")
            else:
                say(
                    f"executed {len(done)}/{pending} "
                    f"({len(seeds) - pending} cached, {len(fails)} failed)"
                )

        if rule is None:
            yield from collect(spec.n_runs)
            stop_reason = "fixed-N"
        else:
            while True:
                values = [results[s].cycles_per_transaction for s in sorted(results)]
                batch = rule.next_batch(values)
                # Failed seeds consume grid positions, so cap total issue
                # at the rule's run budget to guarantee termination.
                batch = min(batch, rule.max_runs - issued)
                if batch <= 0:
                    if rule.satisfied_by(values):
                        stop_reason = f"CI target met (n={len(values)})"
                    elif len(values) >= rule.max_runs or issued >= rule.max_runs:
                        stop_reason = f"run cap ({rule.max_runs})"
                    else:
                        stop_reason = "stopped"
                    break
                yield from collect(batch)

        sample = RunSample(
            config=config,
            workload_name=wspec.name,
            results=[results[seed] for seed in sorted(results)],
        )
        return CellResult(
            config_label=label,
            workload=wspec.name,
            sample=sample,
            cached_hits=sampler.cached_hits,
            executed=sampler.executed,
            failures=sampler.failures,
            stop_reason=stop_reason,
        )
