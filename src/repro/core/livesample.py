"""Live sampling: online phase detection + stratified window placement.

:func:`repro.core.sampling.multi_window_sample` places timed windows on
a fixed cadence, spending the same budget on a flat region as on one
that is changing.  This module replaces the cadence with *behaviour*:

1. **Survey** (functional, no timing model): fast-forward across the
   measured region with a
   :class:`~repro.probes.collectors.PhaseSignatureProbe` attached,
   producing one cheap feature vector per candidate window interval --
   coherence traffic, lock contention, and transaction mix per
   transaction (the signals that stay live during functional
   fast-forward; see :mod:`repro.core.ffwd`).
2. **Detect** phases online: :class:`OnlinePhaseDetector` runs a
   robust-z change-point test over the vectors as they arrive
   (Pac-Sim-style), splitting the lifetime into phase segments;
   :func:`stratify` merges behaviourally-equal segments (a recurring
   phase is *one* stratum, however many times it occurs).
3. **Allocate** a timed-window budget in two phases (Ekman-style):
   pilot windows establish each stratum's variance, then
   :func:`neyman_allocation` spends the remainder proportionally to
   ``weight x stddev`` -- optionally only as much of it as the
   projected CI half-width needs (``target_fraction``).
4. **Estimate** with the stratified formulas: mean ``sum(W_h ybar_h)``,
   variance ``sum(W_h^2 s_h^2 / n_h)``, Satterthwaite degrees of
   freedom -- degenerating *exactly* to
   :func:`repro.core.confidence.confidence_interval` when one stratum
   covers the lifetime.

The pilot and allocated passes time their windows through the same
loop as the fixed cadence, :func:`repro.core.sampling.timed_windows`;
only the placement differs.  Everything is deterministic given the
run's seed: window placement is a pure function of the survey
signatures, and each pass (survey, pilot, allocated) starts from
identical initial conditions via the caller's machine factory, seeded
and warmed by :func:`repro.core.sampling.start_sampled_run` like any
other run.  Results are *estimates* of the measured region -- which is why
``sampling_mode="live"`` folds into store keys
(:mod:`repro.store.keys`) and must never alias the exhaustively-timed
``"fixed"`` result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.config import RunConfig, SystemConfig
from repro.core.confidence import ConfidenceInterval
from repro.core.distributions import critical_deviate
from repro.core.metrics import mean, sample_stddev
from repro.core.sampling import WindowMeasurement, start_sampled_run, timed_windows

# ---------------------------------------------------------------------------
# Defaults.  These are module-level constants, NOT RunConfig fields:
# RunConfig serializes via asdict(), so a new field there would change
# every existing store key.  The key-folded ``sampling_mode`` selects
# live sampling; these constants define what "live" means, and bumping
# them is a semantic change gated by KEY_VERSION like any other.
# ---------------------------------------------------------------------------

#: candidate window intervals the measured region is divided into
LIVE_INTERVALS = 16

#: timed-window budget as a fraction of the candidate intervals
LIVE_BUDGET_FRACTION = 0.5

#: pilot windows per stratum before Neyman allocation
LIVE_PILOT_WINDOWS = 2

#: stop spending budget once the projected CI half-width is below this
#: fraction of the running point estimate (the paper's 2 % precision
#: target, section 5.1.1)
LIVE_TARGET_FRACTION = 0.02

#: intervals the detector must see before it can call a change point
DETECTOR_MIN_INTERVALS = 4

#: robust-z score a vector must exceed to look like a new phase
DETECTOR_THRESHOLD = 6.0

#: consecutive out-of-phase intervals required to confirm a change
#: (a single outlier interval is absorbed, not a phase)
DETECTOR_PATIENCE = 2

#: per-dimension deviation floor, relative to the dimension's mean --
#: guards the z-score against near-zero variance in flat phases and
#: makes sub-floor jitter provably unable to fire the detector
DETECTOR_REL_FLOOR = 0.05

#: absolute deviation floor for dimensions whose mean is ~0
DETECTOR_ABS_FLOOR = 1e-9

#: maximum normalized centroid distance at which two phase segments
#: are considered the same behaviour (one stratum)
STRATUM_MERGE_THRESHOLD = 0.25


# ---------------------------------------------------------------------------
# Online change-point detection
# ---------------------------------------------------------------------------


class OnlinePhaseDetector:
    """Streaming change-point test over per-interval feature vectors.

    Maintains the current phase's per-dimension mean and spread; an
    arriving vector whose worst-dimension robust z-score exceeds
    ``threshold`` for ``patience`` consecutive intervals starts a new
    phase at the first such interval.  Fewer than ``patience``
    consecutive outliers are absorbed into the current phase (system
    noise produces isolated spikes; phases persist).

    The z-score's denominator is floored at ``rel_floor * |mean|`` (and
    ``abs_floor`` absolutely), which has two load-bearing consequences:
    a *constant* signal stays scoreable (sample stddev 0 would otherwise
    divide by zero), and jitter smaller than the floor **cannot** fire
    the detector no matter how the sample variance fluctuates -- the
    "silent on iid noise" property is structural, not probabilistic.
    """

    def __init__(
        self,
        *,
        min_intervals: int = DETECTOR_MIN_INTERVALS,
        threshold: float = DETECTOR_THRESHOLD,
        patience: int = DETECTOR_PATIENCE,
        rel_floor: float = DETECTOR_REL_FLOOR,
        abs_floor: float = DETECTOR_ABS_FLOOR,
    ) -> None:
        if min_intervals < 2:
            raise ValueError("min_intervals must be at least 2")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.min_intervals = min_intervals
        self.threshold = threshold
        self.patience = patience
        self.rel_floor = rel_floor
        self.abs_floor = abs_floor
        self._phase: list[dict[str, float]] = []
        self._pending: list[tuple[int, dict[str, float]]] = []
        self._index = 0
        #: confirmed change points: interval index starting each new phase
        self.change_points: list[int] = []

    def _score(self, features: Mapping[str, float]) -> float:
        """Worst-dimension robust z of ``features`` vs the current phase."""
        n = len(self._phase)
        dims: set[str] = set(features)
        for vector in self._phase:
            dims.update(vector)
        worst = 0.0
        for dim in dims:
            values = [vector.get(dim, 0.0) for vector in self._phase]
            mu = sum(values) / n
            if n > 1:
                var = sum((v - mu) ** 2 for v in values) / (n - 1)
                sigma = math.sqrt(var)
            else:
                sigma = 0.0
            scale = max(sigma, self.rel_floor * abs(mu) + self.abs_floor)
            worst = max(worst, abs(features.get(dim, 0.0) - mu) / scale)
        return worst

    def observe(self, features: Mapping[str, float]) -> int | None:
        """Feed the next interval's vector; returns the change-point
        interval index when a phase change is confirmed, else ``None``."""
        index = self._index
        self._index += 1
        if len(self._phase) < self.min_intervals:
            # Still seeding the first phase model.
            self._phase.append(dict(features))
            return None
        if self._score(features) > self.threshold:
            self._pending.append((index, dict(features)))
            if len(self._pending) >= self.patience:
                start = self._pending[0][0]
                self._phase = [vector for _, vector in self._pending]
                self._pending = []
                self.change_points.append(start)
                return start
            return None
        # Back in phase: pending outliers were transients, absorb them.
        for _, vector in self._pending:
            self._phase.append(vector)
        self._pending = []
        self._phase.append(dict(features))
        return None


@dataclass(frozen=True)
class PhaseSegment:
    """One contiguous run of intervals the detector calls a phase."""

    start: int
    end: int  # exclusive
    centroid: tuple  # sorted ((dim, mean-value), ...) -- hashable

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def centroid_dict(self) -> dict[str, float]:
        return dict(self.centroid)


def _centroid(signatures: Sequence[Mapping[str, float]]) -> tuple:
    dims: set[str] = set()
    for vector in signatures:
        dims.update(vector)
    n = len(signatures)
    return tuple(
        sorted(
            (dim, sum(vector.get(dim, 0.0) for vector in signatures) / n)
            for dim in dims
        )
    )


def detect_phases(
    signatures: Sequence[Mapping[str, float]],
    **detector_kwargs,
) -> tuple[list[PhaseSegment], list[int]]:
    """Split a signature series into phase segments.

    Runs :class:`OnlinePhaseDetector` over the series and cuts it at
    every confirmed change point; returns the segments (covering every
    interval exactly once, in order) and the change-point indices.
    """
    if not signatures:
        return [], []
    detector = OnlinePhaseDetector(**detector_kwargs)
    for vector in signatures:
        detector.observe(vector)
    boundaries = [0, *detector.change_points, len(signatures)]
    segments = [
        PhaseSegment(start=lo, end=hi, centroid=_centroid(signatures[lo:hi]))
        for lo, hi in zip(boundaries, boundaries[1:])
        if hi > lo
    ]
    return segments, list(detector.change_points)


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


@dataclass
class Stratum:
    """A group of behaviourally-equal intervals (possibly from several
    non-contiguous phase segments -- a recurring phase is one stratum)."""

    intervals: list[int]
    centroid: dict[str, float]

    @property
    def size(self) -> int:
        return len(self.intervals)


def centroid_distance(
    a: Mapping[str, float],
    b: Mapping[str, float],
    *,
    abs_floor: float = DETECTOR_ABS_FLOOR,
) -> float:
    """Worst-dimension relative distance between two feature centroids."""
    dims = set(a) | set(b)
    worst = 0.0
    for dim in dims:
        x = a.get(dim, 0.0)
        y = b.get(dim, 0.0)
        scale = max(abs(x), abs(y), abs_floor)
        worst = max(worst, abs(x - y) / scale)
    return worst


def stratify(
    segments: Sequence[PhaseSegment],
    *,
    merge_threshold: float = STRATUM_MERGE_THRESHOLD,
) -> list[Stratum]:
    """Group phase segments into behaviour strata.

    Greedy in segment order: each segment joins the first stratum whose
    centroid lies within ``merge_threshold`` (worst-dimension relative
    distance), updating that centroid as the size-weighted mean;
    otherwise it opens a new stratum.  Deterministic, and order-stable:
    stratum 0 always contains the lifetime's first interval.
    """
    strata: list[Stratum] = []
    for segment in segments:
        seg_centroid = segment.centroid_dict
        for stratum in strata:
            if centroid_distance(seg_centroid, stratum.centroid) <= merge_threshold:
                total = stratum.size + segment.length
                dims = set(stratum.centroid) | set(seg_centroid)
                stratum.centroid = {
                    dim: (
                        stratum.centroid.get(dim, 0.0) * stratum.size
                        + seg_centroid.get(dim, 0.0) * segment.length
                    )
                    / total
                    for dim in dims
                }
                stratum.intervals.extend(range(segment.start, segment.end))
                break
        else:
            strata.append(
                Stratum(
                    intervals=list(range(segment.start, segment.end)),
                    centroid=dict(seg_centroid),
                )
            )
    return strata


# ---------------------------------------------------------------------------
# Budget allocation (Ekman-style two-phase / Neyman)
# ---------------------------------------------------------------------------


def neyman_allocation(
    budget: int,
    weights: Sequence[float],
    stddevs: Sequence[float],
    *,
    floor: int = 1,
) -> list[int]:
    """Split an integer window budget across strata, Neyman-style.

    Every stratum first receives ``floor`` windows; the remainder is
    distributed proportionally to ``weights[h] * stddevs[h]`` (the
    optimal allocation for minimizing the stratified variance at fixed
    total n), with fractional shares resolved by largest remainder.
    Zero-variance strata therefore get exactly the floor -- unless
    *every* stratum has zero variance, in which case the remainder
    falls back to weight-proportional (the allocation must still sum
    to ``budget``).

    Properties (locked by hypothesis tests): the result sums exactly to
    ``budget``; permuting strata permutes the allocation identically
    (tie-breaks are value-based, not index-based, so this holds
    whenever the ``weight x stddev`` products are distinct).
    """
    n_strata = len(weights)
    if n_strata == 0:
        raise ValueError("need at least one stratum")
    if len(stddevs) != n_strata:
        raise ValueError("weights and stddevs must have equal length")
    if floor < 0:
        raise ValueError("floor must be non-negative")
    if any(w <= 0 for w in weights):
        raise ValueError("stratum weights must be positive")
    if any(s < 0 for s in stddevs):
        raise ValueError("stddevs must be non-negative")
    if budget < floor * n_strata:
        raise ValueError(
            f"budget {budget} cannot give {n_strata} strata the floor of {floor}"
        )
    shares = [w * s for w, s in zip(weights, stddevs)]
    if sum(shares) == 0:
        shares = list(weights)
    total = sum(shares)
    remainder = budget - floor * n_strata
    quotas = [remainder * share / total for share in shares]
    allocation = [floor + math.floor(quota) for quota in quotas]
    leftover = budget - sum(allocation)
    # Largest-remainder rounding with value-based tie-breaks.
    order = sorted(
        range(n_strata),
        key=lambda h: (quotas[h] - math.floor(quotas[h]), shares[h], weights[h]),
        reverse=True,
    )
    for h in order[:leftover]:
        allocation[h] += 1
    return allocation


def _capped_allocation(
    extra: int,
    weights: Sequence[float],
    stddevs: Sequence[float],
    capacities: Sequence[int],
) -> list[int]:
    """Neyman allocation with per-stratum capacity limits.

    A stratum cannot receive more windows than it has unmeasured
    intervals; its overflow is re-allocated among the others (another
    Neyman pass over the still-open strata) until the budget is spent
    or every stratum is saturated.
    """
    n_strata = len(weights)
    allocation = [0] * n_strata
    active = [h for h in range(n_strata) if capacities[h] > 0]
    while extra > 0 and active:
        shares = neyman_allocation(
            extra,
            [weights[h] for h in active],
            [stddevs[h] for h in active],
            floor=0,
        )
        for position, h in enumerate(active):
            take = min(shares[position], capacities[h] - allocation[h])
            allocation[h] += take
            extra -= take
        active = [h for h in active if allocation[h] < capacities[h]]
    return allocation


def _projected_half_width(
    weights: Sequence[float],
    stddevs: Sequence[float],
    counts: Sequence[int],
    confidence: float,
) -> float:
    """Planning projection of the stratified CI half-width.

    Uses the normal deviate (Cochran's planning convention -- the
    realized interval uses Student t with Satterthwaite df, so the
    projection is slightly optimistic at small n; the allocator keeps
    spending until the *projection* meets the target, and the realized
    interval is what callers assert against)."""
    variance = sum(
        (w * s) ** 2 / n for w, s, n in zip(weights, stddevs, counts) if n > 0
    )
    return critical_deviate(confidence) * math.sqrt(variance)


# ---------------------------------------------------------------------------
# Stratified estimation
# ---------------------------------------------------------------------------


def stratified_confidence_interval(
    values_by_stratum: Sequence[Sequence[float]],
    weights: Sequence[float],
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """CI of the population mean from per-stratum samples.

    Mean ``sum(W_h ybar_h)``, variance ``sum(W_h^2 s_h^2 / n_h)``,
    Satterthwaite degrees of freedom, and the same t-vs-normal switch
    as :func:`repro.core.confidence.confidence_interval` -- to which
    this degenerates exactly when a single stratum covers everything
    (locked by a property test).

    A stratum with a single observation has no variance estimate of
    its own; it conservatively adopts the largest stddev measured in
    any other stratum (its true spread is unknown, so assume the worst
    observed).  At least one stratum must carry two observations.
    """
    n_strata = len(values_by_stratum)
    if n_strata == 0:
        raise ValueError("need at least one stratum")
    if len(weights) != n_strata:
        raise ValueError("weights and values must have equal length")
    if any(w <= 0 for w in weights):
        raise ValueError("stratum weights must be positive")
    if any(len(values) == 0 for values in values_by_stratum):
        raise ValueError("every stratum needs at least one observation")
    total_weight = sum(weights)
    norm_weights = [w / total_weight for w in weights]
    counts = [len(values) for values in values_by_stratum]
    if max(counts) < 2:
        raise ValueError(
            "stratified interval needs at least one stratum with two observations"
        )
    means = [mean(values) for values in values_by_stratum]
    measured_stds = [
        sample_stddev(values) if len(values) >= 2 else None
        for values in values_by_stratum
    ]
    fallback = max(s for s in measured_stds if s is not None)
    stds = [s if s is not None else fallback for s in measured_stds]
    overall = sum(w * m for w, m in zip(norm_weights, means))
    terms = [
        (w * s) ** 2 / n for w, s, n in zip(norm_weights, stds, counts)
    ]
    variance = sum(terms)
    total_n = sum(counts)
    # Satterthwaite: only strata with a real variance estimate contribute
    # degrees of freedom (none does when every variance is zero).
    dof_denominator = sum(
        term**2 / (n - 1)
        for term, n, s in zip(terms, counts, measured_stds)
        if s is not None and n >= 2
    )
    dof = variance**2 / dof_denominator if dof_denominator > 0 else total_n - 1
    margin = critical_deviate(confidence, dof) * math.sqrt(variance)
    return ConfidenceInterval(
        mean=overall,
        lower=overall - margin,
        upper=overall + margin,
        confidence=confidence,
        n=total_n,
    )


# ---------------------------------------------------------------------------
# The live sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class LiveWindow(WindowMeasurement):
    """One timed window the live sampler placed: the measurement, plus
    where it was placed and which stratum it stands for."""

    interval: int  # candidate-interval index within the measured region
    stratum: int


@dataclass(frozen=True)
class StratumEstimate:
    """Per-stratum measurement summary feeding the stratified formulas."""

    index: int
    intervals: tuple[int, ...]
    weight: float
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean_value(self) -> float:
        return mean(self.values)

    @property
    def stddev(self) -> float:
        return sample_stddev(self.values) if self.n >= 2 else 0.0


@dataclass
class LiveSample:
    """The live sampler's full outcome for one seed."""

    windows: list[LiveWindow] = field(default_factory=list)
    strata: list[StratumEstimate] = field(default_factory=list)
    change_points: list[int] = field(default_factory=list)
    n_intervals: int = 0
    interval_transactions: int = 0
    n_cpus: int = 1
    seed: int = 0
    timed_out: bool = False

    @property
    def values(self) -> list[float]:
        """Cycles per transaction of each valid window, in pass order --
        the same shape :class:`~repro.core.sampling.MultiWindowSample`
        feeds to the CI / WCR machinery."""
        return [w.cycles_per_transaction for w in self.windows if w.valid]

    @property
    def n_timed_windows(self) -> int:
        return sum(1 for w in self.windows if w.valid)

    @property
    def timed_transactions(self) -> int:
        """Transactions executed under the timing model (the cost that
        live sampling exists to shrink)."""
        return sum(w.transactions for w in self.windows)

    def _measured_strata(self) -> list[StratumEstimate]:
        return [s for s in self.strata if s.n > 0]

    @property
    def point_estimate(self) -> float:
        """Stratified mean over measured strata (weights renormalized
        if a stratum ended up unmeasured, e.g. on timeout)."""
        measured = self._measured_strata()
        if not measured:
            raise ValueError("no stratum holds a valid measurement")
        total = sum(s.weight for s in measured)
        return sum(s.weight / total * s.mean_value for s in measured)

    def interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Stratified confidence interval over the measured strata."""
        measured = self._measured_strata()
        if not measured:
            raise ValueError("no stratum holds a valid measurement")
        return stratified_confidence_interval(
            [list(s.values) for s in measured],
            [s.weight for s in measured],
            confidence,
        )

    def summary(self) -> dict:
        """JSON-safe summary for ``SimulationResult.stats``."""
        data = {
            "n_intervals": self.n_intervals,
            "interval_transactions": self.interval_transactions,
            "n_strata": len(self.strata),
            "n_timed_windows": self.n_timed_windows,
            "timed_transactions": self.timed_transactions,
            "change_points": list(self.change_points),
            "strata": [
                {
                    "weight": s.weight,
                    "intervals": list(s.intervals),
                    "n": s.n,
                    "mean": s.mean_value if s.n else None,
                    "stddev": s.stddev if s.n >= 2 else None,
                }
                for s in self.strata
            ],
        }
        try:
            ci = self.interval()
        except ValueError:
            pass
        else:
            data["half_width"] = ci.half_width
            data["confidence"] = ci.confidence
        return data


def _spread(items: Sequence[int], k: int) -> list[int]:
    """``k`` evenly spaced members of ``items`` (all of them if k >= len)."""
    if k <= 0:
        return []
    if k >= len(items):
        return list(items)
    if k == 1:
        return [items[len(items) // 2]]
    span = len(items) - 1
    return [items[round(i * span / (k - 1))] for i in range(k)]


def _fresh_machine(machine_factory: Callable, run: RunConfig, warmup_mode: str):
    """One pass's machine: a fresh build, seeded and warmed up."""
    return start_sampled_run(machine_factory(), run, warmup_mode)


def _survey(
    machine_factory: Callable,
    run: RunConfig,
    *,
    n_intervals: int,
    interval_transactions: int,
) -> tuple[tuple[dict[str, float], ...], bool]:
    """The scout pass: functional fast-forward over the measured region
    with a signature probe attached; always functional (its whole point
    is costing no timing model), regardless of the warm-up mode the
    measurement passes will pay.

    The result does not depend on ``run.seed``: the functional engine
    never draws from the perturbation stream, so the scout is a function
    of the machine the factory builds, ``run.warmup_transactions``,
    ``run.max_time_ns`` and the two interval arguments alone -- which is
    what lets :func:`live_window_sample` share one scout between the
    seeds of a cell.
    """
    from repro.probes.bus import ProbeBus
    from repro.probes.collectors import PhaseSignatureProbe

    machine = _fresh_machine(machine_factory, run, "functional")
    origin = machine.completed_transactions
    probe = PhaseSignatureProbe(interval_transactions)
    bus = ProbeBus()
    bus.attach(probe)
    machine.attach_probes(bus)
    try:
        machine.fast_forward_transactions(
            origin + n_intervals * interval_transactions,
            max_time_ns=run.max_time_ns,
        )
    finally:
        machine.detach_probes()
    return tuple(probe.signatures), machine.timed_out


def _measure_intervals(
    machine_factory: Callable,
    run: RunConfig,
    placements: Sequence[tuple[int, int]],
    *,
    interval_transactions: int,
    warmup_mode: str,
) -> tuple[list[LiveWindow], bool]:
    """One measurement pass: :func:`~repro.core.sampling.timed_windows`
    at the chosen intervals, ``placements`` being ``(interval_index,
    stratum_index)`` pairs sorted ascending by interval."""
    measured, timed_out = timed_windows(
        _fresh_machine(machine_factory, run, warmup_mode),
        run,
        [interval * interval_transactions for interval, _ in placements],
        interval_transactions,
    )
    windows = [
        LiveWindow(interval=interval, stratum=stratum, **vars(window))
        for (interval, stratum), window in zip(placements, measured)
    ]
    return windows, timed_out


def live_window_sample(
    config: SystemConfig,
    run: RunConfig,
    *,
    machine_factory: Callable,
    n_intervals: int,
    budget_windows: int | None = None,
    interval_transactions: int | None = None,
    pilot_windows: int = LIVE_PILOT_WINDOWS,
    target_fraction: float | None = None,
    confidence: float = 0.95,
    warmup_mode: str = "functional",
    survey_memo: dict | None = None,
) -> LiveSample:
    """Survey, detect, stratify, and measure one seed's execution.

    The measured region is ``n_intervals`` candidate windows of
    ``interval_transactions`` (default ``run.measured_transactions``)
    transactions each, after the usual warm-up leg.  Three passes run
    from identical initial conditions (a fresh ``machine_factory()``
    machine per pass, same perturbation seed):

    1. a functional scout collecting one signature per interval;
    2. pilot windows -- up to ``pilot_windows`` evenly spread timed
       windows per detected stratum;
    3. the remaining budget, Neyman-allocated by pilot variance --
       stopped early once the projected CI half-width falls below
       ``target_fraction`` of the pilot point estimate (spend
       everything when ``target_fraction`` is ``None``).

    ``budget_windows`` (default half the intervals, min 2) caps total
    timed windows; it is a *budget*, and live sampling's value is
    spending less of it than a fixed cadence needs for the same
    precision.  ``warmup_mode`` governs the warm-up leg of measurement
    passes only; inter-window skips and the scout are always
    functional.

    ``machine_factory`` must return a *fresh* machine with fresh
    workload state on every call (the fan-out engine passes its
    resident's ``fresh_machine``, a clone of one pristine machine).

    ``survey_memo`` lets the seeds of one cell share the scout pass,
    which is perturbation-independent (see :func:`_survey`): a dict the
    caller holds for as long as ``machine_factory`` keeps building the
    same machine (same checkpoint, same configuration), keyed here on
    the remaining scout inputs.  Entries are read-only.
    """
    from repro.system.machine import check_warmup_mode

    if n_intervals < 2:
        raise ValueError("live sampling needs at least two intervals")
    if interval_transactions is None:
        interval_transactions = run.measured_transactions
    if interval_transactions <= 0:
        raise ValueError("interval_transactions must be positive")
    if budget_windows is None:
        budget_windows = max(2, round(n_intervals * LIVE_BUDGET_FRACTION))
    budget_windows = min(budget_windows, n_intervals)
    if budget_windows < 2:
        raise ValueError("budget_windows must be at least 2 (variance needs two)")
    if pilot_windows < 1:
        raise ValueError("pilot_windows must be at least 1")
    check_warmup_mode(warmup_mode)
    if target_fraction is not None and target_fraction <= 0:
        raise ValueError("target_fraction must be positive")

    # -- pass 1: functional scout --------------------------------------
    memo_key = (
        run.warmup_transactions,
        run.max_time_ns,
        n_intervals,
        interval_transactions,
    )
    scout = None if survey_memo is None else survey_memo.get(memo_key)
    if scout is None:
        scout = _survey(
            machine_factory,
            run,
            n_intervals=n_intervals,
            interval_transactions=interval_transactions,
        )
        if survey_memo is not None:
            survey_memo[memo_key] = scout
    signatures, scout_timed_out = scout
    if not signatures:
        raise ValueError(
            "survey pass completed no full interval; the workload is "
            "shorter than one interval after warm-up"
        )
    n_intervals = len(signatures)  # workload may have ended early
    budget_windows = min(budget_windows, n_intervals)

    segments, change_points = detect_phases(signatures)
    strata = stratify(segments)
    weights = [stratum.size / n_intervals for stratum in strata]

    # -- pass 2: pilots ------------------------------------------------
    desired = [min(pilot_windows, stratum.size) for stratum in strata]
    while sum(desired) > budget_windows:
        # Trim the largest pilot count first (value-based, then latest
        # stratum) so every stratum keeps a window as long as possible.
        h = max(range(len(strata)), key=lambda i: (desired[i], i))
        desired[h] -= 1
    pilot_picks = [
        _spread(sorted(stratum.intervals), desired[h])
        for h, stratum in enumerate(strata)
    ]
    placements = sorted(
        (interval, h) for h, picks in enumerate(pilot_picks) for interval in picks
    )
    pilot_result, pilot_timed_out = _measure_intervals(
        machine_factory,
        run,
        placements,
        interval_transactions=interval_transactions,
        warmup_mode=warmup_mode,
    )
    windows = list(pilot_result)

    values_by_stratum: list[list[float]] = [[] for _ in strata]
    for window in windows:
        if window.valid:
            values_by_stratum[window.stratum].append(window.cycles_per_transaction)

    # -- pass 3: Neyman allocation of the remaining budget -------------
    spent = len(windows)
    remaining = budget_windows - spent
    alloc_timed_out = False
    if remaining > 0 and not pilot_timed_out:
        measured_stds = [
            sample_stddev(values) if len(values) >= 2 else None
            for values in values_by_stratum
        ]
        known = [s for s in measured_stds if s is not None]
        fallback = max(known) if known else 0.0
        stds = [s if s is not None else fallback for s in measured_stds]
        capacities = [
            len(stratum.intervals) - len(pilot_picks[h])
            for h, stratum in enumerate(strata)
        ]
        counts = [len(values) for values in values_by_stratum]
        extra = remaining
        if target_fraction is not None:
            measured_weight = sum(
                w for w, n in zip(weights, counts) if n > 0
            )
            estimate = (
                sum(
                    w / measured_weight * mean(values)
                    for w, values in zip(weights, values_by_stratum)
                    if values
                )
                if measured_weight
                else 0.0
            )
            if estimate:
                target = target_fraction * abs(estimate)
                for candidate in range(remaining + 1):
                    allocation = _capped_allocation(
                        candidate, weights, stds, capacities
                    )
                    projected = [
                        n + a for n, a in zip(counts, allocation)
                    ]
                    if (
                        _projected_half_width(
                            weights, stds, projected, confidence
                        )
                        <= target
                    ):
                        extra = candidate
                        break
        allocation = _capped_allocation(extra, weights, stds, capacities)
        extra_picks = []
        for h, stratum in enumerate(strata):
            unmeasured = sorted(
                set(stratum.intervals) - set(pilot_picks[h])
            )
            for interval in _spread(unmeasured, allocation[h]):
                extra_picks.append((interval, h))
        if extra_picks:
            extra_result, alloc_timed_out = _measure_intervals(
                machine_factory,
                run,
                sorted(extra_picks),
                interval_transactions=interval_transactions,
                warmup_mode=warmup_mode,
            )
            windows.extend(extra_result)
            for window in extra_result:
                if window.valid:
                    values_by_stratum[window.stratum].append(
                        window.cycles_per_transaction
                    )

    estimates = [
        StratumEstimate(
            index=h,
            intervals=tuple(sorted(stratum.intervals)),
            weight=weights[h],
            values=tuple(values_by_stratum[h]),
        )
        for h, stratum in enumerate(strata)
    ]
    return LiveSample(
        windows=windows,
        strata=estimates,
        change_points=change_points,
        n_intervals=n_intervals,
        interval_transactions=interval_transactions,
        n_cpus=config.n_cpus,
        seed=run.seed,
        timed_out=scout_timed_out or pilot_timed_out or alloc_timed_out,
    )


def measure_live(
    machine_factory: Callable,
    config: SystemConfig,
    run: RunConfig,
    *,
    warmup_mode: str = "timed",
    survey_memo: dict | None = None,
) -> "SimulationResult":
    """Execute one live-sampled run and shape it as a ``SimulationResult``.

    This is the ``sampling_mode="live"`` counterpart of
    :func:`repro.system.simulation.measure_machine`, and the body
    :func:`repro.core.request.execute_request` and the fan-out engine
    dispatch to.  The run's measured region (``run.measured_transactions``
    transactions) is divided into up to :data:`LIVE_INTERVALS` candidate
    windows; the sampler times at most :data:`LIVE_BUDGET_FRACTION` of
    them, stopping earlier when the projected CI half-width reaches
    :data:`LIVE_TARGET_FRACTION`.

    The result's ``cycles_per_transaction`` is the *stratified estimate*
    of the whole region; ``elapsed_ns``/``measured_transactions``
    describe only the timed windows (the run's actual timing-model
    cost), and ``stats["livesample"]`` carries the full survey /
    stratification / allocation record.

    ``survey_memo`` is passed through to :func:`live_window_sample`: a
    caller running many seeds against one ``machine_factory`` hands the
    same dict to each call and pays for the scout pass once.
    """
    from repro.system.simulation import SimulationResult

    n_intervals = min(LIVE_INTERVALS, run.measured_transactions)
    if n_intervals < 2:
        raise ValueError(
            "live sampling needs run.measured_transactions >= 2 "
            "(the region must divide into at least two intervals)"
        )
    interval_transactions = max(1, run.measured_transactions // n_intervals)
    sample = live_window_sample(
        config,
        run,
        machine_factory=machine_factory,
        n_intervals=n_intervals,
        interval_transactions=interval_transactions,
        target_fraction=LIVE_TARGET_FRACTION,
        warmup_mode=warmup_mode,
        survey_memo=survey_memo,
    )
    valid = [w for w in sample.windows if w.valid]
    if not valid:
        raise ValueError(
            "live sampling completed no transactions "
            "(workload finished during warm-up, or the time budget expired)"
        )
    return SimulationResult(
        cycles_per_transaction=sample.point_estimate,
        elapsed_ns=sum(w.end_ns - w.start_ns for w in valid),
        measured_transactions=sum(w.transactions for w in valid),
        start_ns=min(w.start_ns for w in valid),
        end_ns=max(w.end_ns for w in valid),
        n_cpus=config.n_cpus,
        seed=run.seed,
        timed_out=sample.timed_out,
        stats={"livesample": sample.summary()},
    )
