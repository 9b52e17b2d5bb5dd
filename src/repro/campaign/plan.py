"""Campaign specification and planning.

A campaign is a grid: (configuration × workload × perturbation seed).
Planning resolves every grid point to its content-addressed store key
and classifies it as *cached* (a prior execution is stored) or
*pending*.  The plan is what ``--dry-run`` prints, and the subtraction
``pending = grid - cached`` is the whole resume story: a rerun after an
interrupt plans the same grid and only executes what is missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import RunConfig, SystemConfig
from repro.core.request import FIDELITY_FULL, RunRequest, WorkloadSpec
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
    #: execution tier for every cell ("ffwd" | "simple" | "ooo"); see
    #: :mod:`repro.core.request`.  Non-default tiers fold into every
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
        if self.warmup_mode not in ("timed", "functional"):
            raise ValueError(f"unknown warm-up mode {self.warmup_mode!r}")
        from repro.core.request import FIDELITY_TIERS

        if self.fidelity not in FIDELITY_TIERS:
            raise ValueError(
                f"unknown fidelity tier {self.fidelity!r} "
                f"(expected one of {', '.join(FIDELITY_TIERS)})"
            )
        from repro.core.request import SAMPLING_MODES

        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"unknown sampling mode {self.sampling_mode!r} "
                f"(expected one of {', '.join(SAMPLING_MODES)})"
            )
        if self.sampling_mode == "live" and self.fidelity == "ffwd":
            raise ValueError(
                "sampling_mode='live' places timed windows; the ffwd tier "
                "has none (use fidelity='simple' or 'ooo')"
            )

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


def cell_execution(spec: CampaignSpec, config: SystemConfig, wspec: WorkloadSpec):
    """The effective (per-seed run config, checkpoint digest) of a cell.

    For a cold campaign this is simply ``(spec.run, None)``.  For a
    warm-started campaign each seed measures from the cell's shared warm
    checkpoint -- so the per-seed run drops its warm-up leg and the key
    carries ``"warm:" + warm_key(...)``.  Because the warm key is a
    *cause* key (:func:`repro.store.warm_key`), planning can resolve
    warm-started run keys without ever running the warm-up.

    This is the single definition both :func:`plan_campaign` and
    :class:`~repro.campaign.campaign.Campaign` key runs with, which is
    what keeps ``--dry-run``, execution, and resume in agreement.
    """
    if not spec.warm_start:
        return spec.run, None
    return replace(spec.run, warmup_transactions=0), f"warm:{cell_warm_key(spec, config, wspec)}"


def cell_warm_key(spec: CampaignSpec, config: SystemConfig, wspec: WorkloadSpec) -> str:
    """The store key of a warm-started cell's shared checkpoint."""
    # The warm key comes from a request carrying the *original* warm-up
    # length and the spec's fidelity (the warm-up executes under the
    # fidelity-effective configuration).
    warm = RunRequest(
        config=config, workload=wspec, run=spec.run,
        warmup_mode=spec.warmup_mode, fidelity=spec.fidelity,
    )
    return warm.warm_checkpoint_key()


def cell_key_mode(spec: CampaignSpec) -> str:
    """The ``warmup_mode`` that belongs in a cell's *run* keys.

    A warm-started cell carries the mode in its warm key (the per-seed
    runs pay no warm-up), and a cell with no warm-up leg at all is
    mode-independent -- both key as ``"timed"``.  Only a cold cell whose
    seeds each pay a warm-up folds the mode into its run keys.  Shared by
    :func:`plan_campaign` and the executor so ``--dry-run``, execution,
    and resume agree.
    """
    if spec.warm_start or spec.run.warmup_transactions <= 0:
        return "timed"
    return spec.warmup_mode


def cell_request(
    spec: CampaignSpec, config: SystemConfig, wspec: WorkloadSpec
) -> RunRequest:
    """The :class:`~repro.core.request.RunRequest` template of one cell.

    Seeded at ``spec.run.seed``; stamp out a cell's sample with
    :meth:`~repro.core.request.RunRequest.with_seed`.  This is the single
    definition planning, the executor, and the service worker all derive
    keys and execution from, which is what keeps ``--dry-run``,
    execution, resume, and served results in agreement.
    """
    cell_run, ckpt_ref = cell_execution(spec, config, wspec)
    return RunRequest(
        config=config,
        workload=wspec,
        run=cell_run,
        checkpoint_ref=ckpt_ref,
        warmup_mode=cell_key_mode(spec),
        fidelity=spec.fidelity,
        sampling_mode=spec.sampling_mode,
    )


def plan_campaign(spec: CampaignSpec, store: RunStore) -> CampaignPlan:
    """Resolve the campaign grid against the store."""
    runs: list[PlannedRun] = []
    n_seeds = spec.initial_seed_count()
    for label, config, wspec in spec.cells():
        template = cell_request(spec, config, wspec)
        for i in range(n_seeds):
            seed = spec.run.seed + i
            key = template.with_seed(seed).run_key
            runs.append(
                PlannedRun(
                    config_label=label,
                    workload=wspec.name,
                    seed=seed,
                    key=key,
                    cached=store.contains(key),
                )
            )
    return CampaignPlan(
        runs=runs,
        adaptive_max_runs=(
            spec.stop_rule.max_runs if spec.stop_rule is not None else None
        ),
    )
