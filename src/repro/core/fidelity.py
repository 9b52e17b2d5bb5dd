"""The mixed-fidelity escalation ladder.

The paper's methodology multiplies every design-space cell by N
perturbation seeds, so full-grid studies are dominated by simulation
cost.  Zhang et al. ("Validating Simplified Processor Models") observe
that simplified cores preserve *relative* conclusions -- which
configuration is faster -- in most of the design space; the regions
where they do not are exactly the ones worth full-fidelity money.  This
module operationalizes that:

1. **Run cheap.**  Every cell of a campaign executes at the policy's
   base tier (default ``"simple"``: the blocking SimpleCore substituted
   for the configured core model, everything else identical -- see
   :func:`repro.core.request.effective_config`).
2. **Audit sentinels.**  A subset of configurations per workload -- the
   baseline plus evenly spaced picks across the sweep -- also runs at
   the reference tier (default ``"ooo"``, full fidelity).  Each
   sentinel's *conclusion* (faster / slower / tie vs the baseline
   configuration, by CI overlap on the study metric) is compared across
   tiers through the :mod:`repro.verify.differential` machinery: two
   implementations, one answer.
3. **Escalate disagreement.**  A sentinel whose tiers disagree in a
   conclusion-changing way (sign flip, or a CI-overlap break) taints its
   *configuration family* (the sweep dimension, e.g. ``dram`` in
   ``dram=180``) for that workload: every cell of the family re-runs at
   the reference tier.
4. **Correct the rest.**  For cells whose family agreed, a per-(family,
   workload) linear correction ``ooo ~= a + b * simple`` is fitted from
   the paired sentinel runs already in the store (same seeds, both
   tiers) and applied to the base-tier values.  A cell whose *corrected*
   conclusion flips against its raw one is escalated too -- the
   correction itself says the cheap tier cannot be trusted there.

Every escalation decision is journaled as a store event
(:meth:`repro.store.RunStore.log_event`), so a shared store's audit
trail explains not only which runs exist but why the expensive ones were
paid for.  All runs go through ordinary :class:`~repro.campaign.Campaign`
execution, so they are content-addressed, cached, and resumable; a
re-invoked ladder re-reads everything from the store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.confidence import confidence_interval, intervals_overlap
from repro.verify.differential import DifferentialResult

__all__ = [
    "CellOutcome",
    "CorrectionModel",
    "EscalationPolicy",
    "EscalationReport",
    "config_family",
    "run_escalated_campaign",
    "sentinel_indices",
]


# ----------------------------------------------------------------------
# Escalation policy and helpers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EscalationPolicy:
    """How the ladder audits and escalates.

    ``sentinel_fraction`` of the configurations (at least
    ``min_sentinels``, always including the baseline -- the first
    configuration -- and the last) run at ``reference_tier`` per
    workload; disagreement thresholds use ``confidence`` for the CI
    overlap test on the study metric (cycles per transaction).
    """

    base_tier: str = "simple"
    reference_tier: str = "ooo"
    sentinel_fraction: float = 0.25
    min_sentinels: int = 2
    confidence: float = 0.95

    def __post_init__(self) -> None:
        from repro.core.request import FIDELITY_TIERS

        for tier in (self.base_tier, self.reference_tier):
            if tier not in FIDELITY_TIERS:
                raise ValueError(f"unknown fidelity tier {tier!r}")
        if self.base_tier == self.reference_tier:
            raise ValueError("base and reference tiers must differ")
        if not 0.0 < self.sentinel_fraction <= 1.0:
            raise ValueError("sentinel_fraction must be in (0, 1]")
        if self.min_sentinels < 1:
            raise ValueError("min_sentinels must be positive")


def config_family(label: str) -> str:
    """The sweep dimension a configuration label belongs to.

    Campaign labels follow ``dimension=value`` (``dram=180``); the
    family is the dimension.  A label without ``=`` (e.g. ``base``) is
    its own family.
    """
    return label.split("=", 1)[0]


def sentinel_indices(n_configs: int, policy: EscalationPolicy) -> list[int]:
    """Which configuration indices are audited at the reference tier.

    Always includes index 0 (the baseline every conclusion is relative
    to) and, with two or more picks, the sweep's far end -- disagreement
    grows toward the edges of a sweep, so the extremes are audited
    before the middle.
    """
    if n_configs <= 0:
        raise ValueError("need at least one configuration")
    count = max(policy.min_sentinels, math.ceil(policy.sentinel_fraction * n_configs))
    count = min(count, n_configs)
    if count == 1:
        return [0]
    picked = sorted(
        {round(i * (n_configs - 1) / (count - 1)) for i in range(count)}
    )
    return picked


def _conclude(values, baseline, confidence: float) -> str:
    """The per-cell conclusion vs the baseline configuration.

    ``"faster"`` / ``"slower"`` (fewer / more cycles per transaction than
    baseline) when the samples' confidence intervals separate,
    ``"tie"`` when they overlap.  Degenerate samples (n < 2, or zero
    variance making the CI width 0) fall back to mean comparison.
    """
    mean_v = sum(values) / len(values)
    mean_b = sum(baseline) / len(baseline)
    if len(values) >= 2 and len(baseline) >= 2:
        try:
            if intervals_overlap(
                confidence_interval(values, confidence),
                confidence_interval(baseline, confidence),
            ):
                return "tie"
        except ValueError:
            pass
    if mean_v == mean_b:
        return "tie"
    return "faster" if mean_v < mean_b else "slower"


# ----------------------------------------------------------------------
# Correction models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorrectionModel:
    """A linear map from base-tier to reference-tier metric values.

    Fitted per (configuration family, workload) from paired runs -- the
    same perturbation seed executed at both tiers -- already in the
    store.  ``reference ~= intercept + slope * base``; with no or
    degenerate pairs the model is the identity (the ladder then leans
    entirely on sentinels).
    """

    family: str
    workload: str
    slope: float = 1.0
    intercept: float = 0.0
    n_pairs: int = 0

    @classmethod
    def fit(cls, family: str, workload: str, pairs) -> "CorrectionModel":
        """Least-squares fit of reference on base values."""
        pairs = list(pairs)
        n = len(pairs)
        if n < 2:
            return cls(family=family, workload=workload, n_pairs=n)
        xs = [x for x, _y in pairs]
        ys = [y for _x, y in pairs]
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var_x = sum((x - mean_x) ** 2 for x in xs)
        if var_x == 0.0:
            # All base values identical: no slope information; shift only.
            return cls(
                family=family,
                workload=workload,
                slope=1.0,
                intercept=mean_y - mean_x,
                n_pairs=n,
            )
        slope = sum((x - mean_x) * (y - mean_y) for x, y in pairs) / var_x
        return cls(
            family=family,
            workload=workload,
            slope=slope,
            intercept=mean_y - slope * mean_x,
            n_pairs=n,
        )

    def apply(self, values) -> list[float]:
        """Map base-tier metric values to corrected reference-tier ones."""
        return [self.intercept + self.slope * v for v in values]


# ----------------------------------------------------------------------
# The ladder executor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellOutcome:
    """The ladder's final answer for one (configuration, workload) cell."""

    config_label: str
    workload: str
    #: tier the reported values carry: the reference tier (sentinel or
    #: escalated cells) or the base tier (corrected cells)
    tier: str
    #: cycles-per-transaction values backing the conclusion (corrected
    #: for base-tier cells)
    values: list[float]
    #: "faster" | "slower" | "tie" vs the baseline configuration
    conclusion: str
    #: "baseline" | "sentinel" | "escalated" | "corrected"
    kind: str
    reason: str = ""


@dataclass
class EscalationReport:
    """Everything the ladder decided and why."""

    outcomes: list[CellOutcome]
    differentials: list[DifferentialResult]
    corrections: dict = field(default_factory=dict)
    confidence: float = 0.95

    @property
    def n_cells(self) -> int:
        return len(self.outcomes)

    @property
    def n_reference_cells(self) -> int:
        """Cells that paid (or reused) reference-tier cost."""
        return sum(1 for o in self.outcomes if o.kind != "corrected")

    @property
    def reference_fraction(self) -> float:
        """Fraction of the grid that ran at the reference tier."""
        return self.n_reference_cells / self.n_cells if self.outcomes else 0.0

    def conclusion(self, config_label: str, workload: str) -> str:
        for outcome in self.outcomes:
            if outcome.config_label == config_label and outcome.workload == workload:
                return outcome.conclusion
        raise KeyError(f"no cell ({config_label!r}, {workload!r})")

    def render(self) -> str:
        from repro.analysis.tables import format_table

        rows = [
            [
                o.config_label,
                o.workload,
                o.tier,
                o.kind,
                f"{sum(o.values) / len(o.values):,.0f}",
                o.conclusion,
                o.reason,
            ]
            for o in self.outcomes
        ]
        table = format_table(
            ["config", "workload", "tier", "kind", "mean c/txn", "vs base", "why"],
            rows,
            title=(
                f"escalation ladder: {self.n_reference_cells}/{self.n_cells} "
                f"cells at reference tier "
                f"({100 * self.reference_fraction:.0f}%)"
            ),
        )
        bad = [d for d in self.differentials if not d.ok]
        if bad:
            table += "\n" + "\n".join(d.render() for d in bad)
        return table


def _tier_disagreement(
    label: str,
    workload: str,
    base_conclusion: str,
    ref_conclusion: str,
    base_values,
    ref_values,
) -> DifferentialResult:
    """One sentinel's tier comparison as a differential check.

    Same shape as the verify harness's differentials: two
    implementations (cheap tier, reference tier) answering one question
    (is this configuration faster than baseline?).  A conclusion
    mismatch -- sign flip or CI-overlap break -- fails the check and
    drives escalation; the mean shift between tiers is report-only.
    """
    name = f"fidelity[{label} x {workload}]"
    mean_base = sum(base_values) / len(base_values)
    mean_ref = sum(ref_values) / len(ref_values)
    notes = [
        f"tier means: base {mean_base:,.0f} vs reference {mean_ref:,.0f} c/txn"
    ]
    mismatches = []
    if base_conclusion != ref_conclusion:
        mismatches.append(
            f"conclusion vs baseline flips across tiers: base tier says "
            f"{base_conclusion!r}, reference tier says {ref_conclusion!r}"
        )
    return DifferentialResult(name=name, mismatches=mismatches, notes=notes)


def run_escalated_campaign(
    spec,
    store,
    *,
    policy: EscalationPolicy | None = None,
    n_jobs: int = 1,
    progress=None,
) -> EscalationReport:
    """Execute a campaign grid through the mixed-fidelity ladder.

    ``spec`` is a fixed-N :class:`~repro.campaign.plan.CampaignSpec`
    (its own ``fidelity`` field is ignored -- the policy's tiers drive
    execution); configuration labels must be unique.  All runs execute
    through ordinary campaigns against ``store``, so every tier's
    results are content-addressed and cached: re-invoking the ladder, or
    later running the full grid at the reference tier, reuses everything
    already paid for.

    Returns an :class:`EscalationReport` whose per-cell conclusions
    carry reference-tier quality where the tiers disagreed and
    corrected base-tier values elsewhere.  Escalation decisions are
    journaled via :meth:`repro.store.RunStore.log_event`.
    """
    from repro.campaign.campaign import Campaign

    policy = policy or EscalationPolicy()
    if spec.stop_rule is not None:
        raise ValueError(
            "the escalation ladder needs a fixed-N spec: adaptive cells grow "
            "from their own results, which contradicts pairing tiers seed by "
            "seed"
        )
    labels = [label for label, _config in spec.configs]
    if len(set(labels)) != len(labels):
        raise ValueError("escalation ladder needs unique configuration labels")

    def say(text: str) -> None:
        if progress is not None:
            progress(f"[ladder] {text}")

    def campaign_for(configs, tier, suffix: str):
        sub = replace(
            spec,
            configs=list(configs),
            fidelity=tier,
            name=f"{spec.name}-{suffix}",
        )
        return Campaign(sub, store, n_jobs=n_jobs).run(progress)

    # ---- 1. the whole grid at the base tier --------------------------
    say(f"base sweep: {len(spec.configs)} configs at tier {policy.base_tier!r}")
    base_report = campaign_for(spec.configs, policy.base_tier, policy.base_tier)
    base_values = {
        (cell.config_label, cell.workload): cell.sample.values
        for cell in base_report.cells
    }

    # ---- 2. sentinels at the reference tier --------------------------
    picked = sentinel_indices(len(spec.configs), policy)
    sentinel_configs = [spec.configs[i] for i in picked]
    say(
        f"sentinels: {[spec.configs[i][0] for i in picked]} at tier "
        f"{policy.reference_tier!r}"
    )
    ref_report = campaign_for(
        sentinel_configs, policy.reference_tier, policy.reference_tier
    )
    ref_values = {
        (cell.config_label, cell.workload): cell.sample.values
        for cell in ref_report.cells
    }

    baseline_label = labels[0]
    # A list in grid order, not a set: step 4 sums floats over it, and a
    # hash-ordered walk would make corrected values differ in the last
    # ulp from one process to the next.
    sentinel_labels = [spec.configs[i][0] for i in picked]
    confidence = policy.confidence

    # ---- 3. tier disagreement on sentinels -> escalate families ------
    differentials: list[DifferentialResult] = []
    escalate_families: set[tuple[str, str]] = set()
    for wspec in spec.workloads:
        wname = wspec.name
        base_base = base_values[(baseline_label, wname)]
        ref_base = ref_values[(baseline_label, wname)]
        for label in sorted(sentinel_labels):
            if label == baseline_label:
                continue
            check = _tier_disagreement(
                label,
                wname,
                _conclude(base_values[(label, wname)], base_base, confidence),
                _conclude(ref_values[(label, wname)], ref_base, confidence),
                base_values[(label, wname)],
                ref_values[(label, wname)],
            )
            differentials.append(check)
            if not check.ok:
                family = config_family(label)
                escalate_families.add((family, wname))
                store.log_event(
                    "escalation",
                    campaign=spec.name,
                    action="escalate-family",
                    family=family,
                    workload=wname,
                    sentinel=label,
                    reason=check.mismatches[0],
                )
                say(f"escalating family {family!r} x {wname}: {check.mismatches[0]}")

    # ---- 4. correction models from paired sentinel runs --------------
    corrections: dict[tuple[str, str], CorrectionModel] = {}
    for wspec in spec.workloads:
        wname = wspec.name
        by_family: dict[str, list] = {}
        for label in sentinel_labels:
            pairs = list(
                zip(base_values[(label, wname)], ref_values[(label, wname)])
            )
            by_family.setdefault(config_family(label), []).extend(pairs)
        pooled = [pair for pairs in by_family.values() for pair in pairs]
        for label, _config in spec.configs:
            family = config_family(label)
            if (family, wname) in corrections:
                continue
            pairs = by_family.get(family) or pooled
            corrections[(family, wname)] = CorrectionModel.fit(family, wname, pairs)

    # ---- 5. settle every cell ----------------------------------------
    escalated: list[tuple[str, object, str, str]] = []  # label, config, wname, why
    for label, config in spec.configs:
        if label in sentinel_labels:
            continue
        family = config_family(label)
        for wspec in spec.workloads:
            wname = wspec.name
            if (family, wname) in escalate_families:
                escalated.append(
                    (label, config, wname, f"family {family!r} sentinel disagreement")
                )
                continue
            model = corrections[(family, wname)]
            corrected = model.apply(base_values[(label, wname)])
            raw = _conclude(
                base_values[(label, wname)],
                base_values[(baseline_label, wname)],
                confidence,
            )
            adjusted = _conclude(
                corrected, ref_values[(baseline_label, wname)], confidence
            )
            if raw != adjusted:
                # The fitted correction changes this cell's conclusion:
                # the cheap tier is not trustworthy here either.
                escalated.append(
                    (
                        label,
                        config,
                        wname,
                        f"correction flips conclusion ({raw} -> {adjusted})",
                    )
                )

    escalated_cells = {(label, wname) for label, _c, wname, _why in escalated}
    for label, config, wname, why in escalated:
        store.log_event(
            "escalation",
            campaign=spec.name,
            action="escalate-cell",
            config=label,
            workload=wname,
            reason=why,
        )
    if escalated:
        say(f"escalating {len(escalated)} cells to tier {policy.reference_tier!r}")
        esc_labels = sorted({label for label, _c, _w, _why in escalated})
        esc_configs = [
            (label, config) for label, config in spec.configs if label in esc_labels
        ]
        esc_report = campaign_for(
            esc_configs, policy.reference_tier, f"{policy.reference_tier}-escalated"
        )
        for cell in esc_report.cells:
            if (cell.config_label, cell.workload) in escalated_cells:
                ref_values[(cell.config_label, cell.workload)] = cell.sample.values

    # ---- 6. assemble outcomes ----------------------------------------
    reasons = {(label, wname): why for label, _c, wname, why in escalated}
    outcomes: list[CellOutcome] = []
    for label, _config in spec.configs:
        family = config_family(label)
        for wspec in spec.workloads:
            wname = wspec.name
            key = (label, wname)
            ref_base = ref_values[(baseline_label, wname)]
            if label == baseline_label:
                outcomes.append(
                    CellOutcome(
                        config_label=label,
                        workload=wname,
                        tier=policy.reference_tier,
                        values=list(ref_base),
                        conclusion="tie",
                        kind="baseline",
                    )
                )
            elif key in ref_values:
                kind = "sentinel" if label in sentinel_labels else "escalated"
                outcomes.append(
                    CellOutcome(
                        config_label=label,
                        workload=wname,
                        tier=policy.reference_tier,
                        values=list(ref_values[key]),
                        conclusion=_conclude(ref_values[key], ref_base, confidence),
                        kind=kind,
                        reason=reasons.get(key, ""),
                    )
                )
            else:
                model = corrections[(family, wname)]
                corrected = model.apply(base_values[key])
                outcomes.append(
                    CellOutcome(
                        config_label=label,
                        workload=wname,
                        tier=policy.base_tier,
                        values=corrected,
                        conclusion=_conclude(corrected, ref_base, confidence),
                        kind="corrected",
                        reason=(
                            f"{model.family} fit: x{model.slope:.3f} "
                            f"{model.intercept:+,.0f} ({model.n_pairs} pairs)"
                        ),
                    )
                )

    report = EscalationReport(
        outcomes=outcomes,
        differentials=differentials,
        corrections=corrections,
        confidence=confidence,
    )
    store.log_event(
        "escalation",
        campaign=spec.name,
        action="summary",
        n_cells=report.n_cells,
        n_reference_cells=report.n_reference_cells,
        reference_fraction=round(report.reference_fraction, 4),
        escalated=sorted(f"{label} x {w}" for label, w in escalated_cells),
    )
    say(
        f"done: {report.n_reference_cells}/{report.n_cells} cells at "
        f"reference tier"
    )
    return report
