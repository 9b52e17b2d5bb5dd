"""Multi-run orchestration: sampling the space of executions.

``run_space`` executes N simulations of one (configuration, workload,
run-length) triple, each with a distinct perturbation seed, from the same
initial conditions -- producing the paper's "space of possible runs"
(section 3.3).  The mean of these runs is the methodology's performance
estimate.

The paper notes the approach "permits reasonable simulation times using
coarse-grain parallelism, provided that multiple simulation hosts are
available"; ``n_jobs`` fans the sample out across worker processes via
:mod:`repro.core.fanout` -- shared state ships to each worker once, each
seed's machine is cloned from a worker-resident template -- with results
returned in seed order regardless of completion order (determinism is
preserved: the fan-out is bit-identical to in-process execution).

``run_space`` is the one-cell campaign: it states the sample's protocol
as a :class:`~repro.core.request.RunRequest` and drives one
:class:`~repro.core.fanout.CellSampler` through
:func:`~repro.core.fanout.run_cells`, which is exactly what a
:class:`~repro.campaign.campaign.Campaign` does per grid cell.  Two
robustness layers come with that:

- runs execute individually with worker-side error capture, so a
  failing run reports *which seed* failed (:class:`RunSpaceError`) while
  the rest of the sample completes;
- with ``store=`` (a :class:`repro.store.RunStore`), completed runs are
  persisted as they finish and cached runs are never re-executed, so an
  interrupted sample resumes where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig, SystemConfig
from repro.core.metrics import VariabilitySummary, summarize
from repro.core.request import (
    DEFAULT_WORKLOAD_SEED,
    FIDELITY_FULL,
    RunRequest,
    WorkloadSpec,
)
from repro.system.simulation import SimulationResult
from repro.workloads.base import Workload

__all__ = [
    "DEFAULT_WORKLOAD_SEED",
    "RunFailure",
    "RunSample",
    "RunSpaceError",
    "WorkloadSpec",
    "run_space",
]


@dataclass(frozen=True)
class RunFailure:
    """One failed run within a sample."""

    seed: int
    error: str
    kind: str = "error"  # "error" | "timeout" | "crash"

    def __str__(self) -> str:
        return f"seed {self.seed} [{self.kind}]: {self.error}"


class RunSpaceError(RuntimeError):
    """Some runs of a sample failed; names the seeds and causes.

    Successfully completed runs were persisted to the store (when one
    was given) before this was raised, so a retry re-executes only the
    failed seeds.
    """

    def __init__(self, failures: list[RunFailure], *, completed: int, total: int):
        self.failures = list(failures)
        self.completed = completed
        self.total = total
        detail = "; ".join(str(f) for f in self.failures[:5])
        if len(self.failures) > 5:
            detail += f"; ... {len(self.failures) - 5} more"
        super().__init__(
            f"{len(self.failures)} of {total} runs failed "
            f"({completed} completed): {detail}"
        )


@dataclass
class RunSample:
    """The results of N runs of one configuration."""

    config: SystemConfig
    workload_name: str
    results: list[SimulationResult] = field(default_factory=list)

    @property
    def values(self) -> list[float]:
        """Cycles per transaction of each run, in seed order."""
        return [r.cycles_per_transaction for r in self.results]

    @property
    def n_timed_out(self) -> int:
        """Runs that hit the simulated-time cap before finishing."""
        return sum(1 for r in self.results if r.timed_out)

    def summary(self) -> VariabilitySummary:
        """Variability summary of the sample (flags timed-out runs)."""
        return summarize(self.values, n_timed_out=self.n_timed_out)

    def subsample(self, n: int) -> "RunSample":
        """The first ``n`` runs (for sample-size sweeps)."""
        if n > len(self.results):
            raise ValueError(f"asked for {n} runs, sample has {len(self.results)}")
        return RunSample(
            config=self.config,
            workload_name=self.workload_name,
            results=self.results[:n],
        )

    def to_dict(self) -> dict:
        """Plain-data (JSON-serializable) form of this sample."""
        return {
            "config": self.config.to_dict(),
            "workload_name": self.workload_name,
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSample":
        """Rebuild a sample from its :meth:`to_dict` form."""
        return cls(
            config=SystemConfig.from_dict(data["config"]),
            workload_name=data["workload_name"],
            results=[SimulationResult.from_dict(r) for r in data["results"]],
        )


def run_space(
    config: SystemConfig,
    workload: Workload | str,
    run: RunConfig,
    n_runs: int,
    *,
    seeds: list[int] | None = None,
    checkpoint=None,
    n_jobs: int = 1,
    workload_params: dict | None = None,
    workload_seed: int | None = None,
    store=None,
    warm_start: bool = False,
    batch_size: int | None = None,
    warmup_mode: str = "timed",
    fidelity: str = FIDELITY_FULL,
    sampling_mode: str = "fixed",
) -> RunSample:
    """Run ``n_runs`` perturbed simulations and collect the sample.

    Each run differs only in its perturbation seed (``seeds`` defaults to
    ``run.seed + 0..n_runs-1``); workload content and initial conditions
    are identical across runs, as in the paper's methodology.

    ``workload_seed`` sets the workload *content* seed when ``workload``
    is a name (default :data:`DEFAULT_WORKLOAD_SEED`); it must not
    contradict a workload instance's own seed.

    ``store`` (a :class:`repro.store.RunStore`, or a root path resolved
    through :func:`repro.store.resolve_store` -- honouring
    ``$REPRO_STORE_BACKEND``) enables persistent caching: runs already
    stored are loaded instead of executed, and every completed run is
    persisted immediately, so an interrupted sample resumes from where
    it stopped on the next call.

    ``warm_start=True`` pays the warm-up once instead of once per seed:
    the warm-up leg runs under a fixed perturbation stream
    (:data:`repro.system.checkpoint.WARMUP_PERTURBATION_SEED`), is
    captured as a checkpoint (cached in the store by its cause key), and
    every seed measures from that shared state.  This is the paper's
    warm-then-checkpoint protocol (section 3.2.2) -- note it defines
    *different* initial conditions than per-seed cold warm-up, so
    warm-started runs have their own run keys and form their own sample
    space.  Requires ``run.warmup_transactions > 0`` and no explicit
    ``checkpoint``.

    Whatever ``n_jobs``, the initial conditions (the checkpoint, or a
    cold boot) are opened once into a pristine machine and each seed's
    machine is cloned from it, so per-seed marginal cost approaches the
    measurement window alone.  ``n_jobs > 1`` fans the pending seeds --
    and the ``warm_start`` warm-up, as a pool task -- out across worker
    processes through :mod:`repro.core.fanout`: shared state
    (configuration, workload spec, checkpoint) ships to each worker once
    per sample.  Results are bit-for-bit identical either way.
    ``batch_size`` overrides the seeds-per-submission chunking (default:
    about three batches per worker).

    ``warmup_mode="functional"`` executes whatever warm-up leg this
    sample pays -- the shared ``warm_start`` leg, or each seed's cold
    warm-up -- through the fast-forward engine (:mod:`repro.core.ffwd`).
    Functional warm-up reaches a different machine state than timed
    warm-up, so those runs key (and cache) separately.

    ``fidelity`` selects the execution tier
    (:data:`repro.core.request.FIDELITY_TIERS`): ``"ooo"`` (default)
    runs the configuration exactly as given, ``"simple"`` substitutes
    the SimpleCore model.  The simple tier folds into run keys (and warm
    keys, via the effective configuration), so tiers never mix in the
    cache.

    ``sampling_mode`` selects how each run observes its measured region
    (its entry in :data:`repro.core.request.MODE_AXES`): ``"fixed"``
    (default) times the whole region as one contiguous window;
    ``"live"`` surveys it functionally, detects phases from probe
    signatures, and times a stratified subset of windows
    (:mod:`repro.core.livesample`) -- an estimate at a fraction of the
    timed cost.  The non-default mode folds into run keys, so
    estimated results never alias exhaustively-timed ones.
    """
    from repro.core.fanout import CellSampler, run_cells
    from repro.store import resolve_store

    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    spec = WorkloadSpec.resolve(
        workload, workload_seed=workload_seed, workload_params=workload_params
    )
    if seeds is None:
        seeds = [run.seed + i for i in range(n_runs)]
    if len(seeds) != n_runs:
        raise ValueError(f"need {n_runs} seeds, got {len(seeds)}")

    stated = RunRequest(
        config=config,
        workload=spec,
        run=run,
        warmup_mode=warmup_mode,
        fidelity=fidelity,
        sampling_mode=sampling_mode,
    )
    sampler = CellSampler(
        stated, resolve_store(store), warm_start=warm_start, checkpoint=checkpoint
    )
    run_cells([sampler.collect(seeds)], n_jobs=n_jobs, retries=0, batch_size=batch_size)
    if sampler.failures:
        raise RunSpaceError(sampler.failures, completed=len(sampler.results), total=n_runs)
    return RunSample(
        config=config,
        workload_name=spec.name,
        results=[sampler.results[seed] for seed in seeds],
    )
