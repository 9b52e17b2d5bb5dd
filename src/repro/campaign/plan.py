"""Campaign specification and planning.

A campaign is a grid: (configuration × workload × perturbation seed).
Planning resolves every grid point to its content-addressed store key
and classifies it as *cached* (a prior execution is stored) or
*pending*.  The plan is what ``--dry-run`` prints, and the subtraction
``pending = grid - cached`` is the whole resume story: a rerun after an
interrupt plans the same grid and only executes what is missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RunConfig, SystemConfig
from repro.core.request import FIDELITY_FULL, RunRequest, WorkloadSpec, check_modes, modes_of
from repro.core.sampling import AdaptiveStopRule
from repro.store import RunStore


@dataclass
class CampaignSpec:
    """What a campaign will run.

    ``configs`` is a list of (label, config) pairs; ``workloads`` a list
    of :class:`~repro.core.runner.WorkloadSpec`.  With ``stop_rule``
    unset, every cell runs exactly ``n_runs`` perturbed simulations with
    seeds ``run.seed + 0..n_runs-1`` (bit-identical to ``run_space``);
    with a rule, each cell grows in batches until the rule stops it.
    """

    configs: list = field(default_factory=list)  # [(label, SystemConfig)]
    workloads: list = field(default_factory=list)  # [WorkloadSpec]
    run: RunConfig = field(default_factory=RunConfig)
    n_runs: int = 20
    stop_rule: AdaptiveStopRule | None = None
    name: str = "campaign"
    #: pay the warm-up once per cell (shared warm checkpoint) instead of
    #: once per seed; see :func:`repro.system.checkpoint.warm_checkpoint`.
    #: Warm-started cells sample different initial conditions than
    #: per-seed cold warm-up, so they key (and cache) separately.
    warm_start: bool = False
    #: how warm-up legs execute: "timed" (full event loop) or
    #: "functional" (fast-forward, :mod:`repro.core.ffwd`).  Applies to
    #: the shared warm-start leg or to each seed's cold warm-up;
    #: measurement windows are always timed.
    warmup_mode: str = "timed"
    #: execution tier for every cell ("simple" | "ooo"); see
    #: :mod:`repro.core.request`.  The simple tier folds into every
    #: cell's run keys (never mixed with full-fidelity results); the
    #: escalation ladder (:mod:`repro.core.fidelity`) runs the same spec
    #: at several tiers and reconciles them.
    fidelity: str = FIDELITY_FULL
    #: how every cell observes its measured region ("fixed" | "live");
    #: see :mod:`repro.core.livesample`.  The non-default mode folds
    #: into every cell's run keys (estimates never alias exhaustive
    #: timing).
    sampling_mode: str = "fixed"

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("campaign needs at least one configuration")
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        if self.stop_rule is None and self.n_runs <= 0:
            raise ValueError("n_runs must be positive")
        if self.warm_start and self.run.warmup_transactions <= 0:
            raise ValueError("warm_start needs run.warmup_transactions > 0")
        check_modes(**modes_of(self))

    def cells(self):
        """The (label, config, workload spec) grid, in declaration order."""
        for label, config in self.configs:
            for wspec in self.workloads:
                yield label, config, wspec

    def initial_seed_count(self) -> int:
        """Seeds a cell starts with (fixed N, or the adaptive minimum)."""
        if self.stop_rule is None:
            return self.n_runs
        return self.stop_rule.min_runs

    def request(self, config: SystemConfig, wspec: WorkloadSpec) -> RunRequest:
        """The protocol of one cell as stated: the spec's run and modes,
        seeded at ``run.seed``, before the warm-start derivation."""
        return RunRequest(config=config, workload=wspec, run=self.run, **modes_of(self))

    def grid(self):
        """Every grid point a cell starts with, resolved to its run key:
        ``(config index, workload index, label, workload spec, seed, key)``
        in declaration order.  Planning and service decomposition both
        enumerate the grid here, so they agree key for key."""
        for ci, (label, config) in enumerate(self.configs):
            for wi, wspec in enumerate(self.workloads):
                template = cell_request(self, config, wspec)
                for seed in range(self.run.seed, self.run.seed + self.initial_seed_count()):
                    yield ci, wi, label, wspec, seed, template.with_seed(seed).run_key


@dataclass(frozen=True)
class PlannedRun:
    """One grid point resolved against the store."""

    config_label: str
    workload: str
    seed: int
    key: str
    cached: bool


@dataclass
class CampaignPlan:
    """The resolved grid, ready to print or execute."""

    runs: list[PlannedRun]
    adaptive_max_runs: int | None = None

    @property
    def n_cached(self) -> int:
        """Grid points already satisfied by the store."""
        return sum(1 for r in self.runs if r.cached)

    @property
    def n_pending(self) -> int:
        """Grid points that still need execution."""
        return sum(1 for r in self.runs if not r.cached)

    def render(self) -> str:
        """A per-cell cached/pending table."""
        from repro.analysis.tables import format_table

        cells: dict[tuple[str, str], list[PlannedRun]] = {}
        for planned in self.runs:
            cells.setdefault((planned.config_label, planned.workload), []).append(planned)
        rows = []
        for (label, workload), members in cells.items():
            cached = sum(1 for m in members if m.cached)
            rows.append([label, workload, len(members), cached, len(members) - cached])
        table = format_table(
            ["config", "workload", "runs", "cached", "pending"],
            rows,
            title=f"campaign plan: {self.n_cached} cached, {self.n_pending} pending",
        )
        if self.adaptive_max_runs is not None:
            table += (
                f"\n(adaptive: planned seeds are the per-cell minimum; cells may "
                f"grow to {self.adaptive_max_runs} runs until the CI target is met)"
            )
        return table


def cell_request(
    spec: CampaignSpec, config: SystemConfig, wspec: WorkloadSpec
) -> RunRequest:
    """The :class:`~repro.core.request.RunRequest` template of one cell.

    Seeded at ``spec.run.seed``; stamp out a cell's sample with
    :meth:`~repro.core.request.RunRequest.with_seed`.  The derivation
    (warm start, key mode) is
    :meth:`~repro.core.request.RunRequest.seed_template`, the definition
    planning, the executor, ``run_space`` and the service worker share.
    """
    return spec.request(config, wspec).seed_template(spec.warm_start)


def plan_campaign(spec: CampaignSpec, store: RunStore) -> CampaignPlan:
    """Resolve the campaign grid against the store."""
    return CampaignPlan(
        runs=[
            PlannedRun(
                config_label=label,
                workload=wspec.name,
                seed=seed,
                key=key,
                cached=store.contains(key),
            )
            for _ci, _wi, label, wspec, seed, key in spec.grid()
        ],
        adaptive_max_runs=(
            spec.stop_rule.max_runs if spec.stop_rule is not None else None
        ),
    )
