"""Time-variability sampling (paper sections 4.3 and 5.2).

Tools for studying how performance varies across a workload's lifetime:

- :func:`windowed_cycles_per_transaction` -- partial results every W
  transactions within one long run (the paper's Figure 8 series);
- :func:`systematic_checkpoint_counts` -- evenly spaced starting points
  across the lifetime (the paper's systematic sampling, section 5.2);
- :func:`checkpoint_study` -- N perturbed runs from each of several
  checkpoints (the paper's Figure 9 data), whose groups feed directly
  into :func:`repro.core.anova.one_way_anova`;
- :class:`AdaptiveStopRule` -- the paper's sample-size estimator
  (section 5.1.1) turned into a *sequential* stopping rule: instead of
  fixing N up front from a prior CoV estimate, run batches and stop when
  the confidence interval is tight enough.  :class:`repro.campaign.Campaign`
  executes this rule against the run store.
- :func:`timed_windows` -- the one timed-window loop of sampled
  measurement: on a machine that :func:`start_sampled_run` seeded and
  warmed, fast-forward functionally (:mod:`repro.core.ffwd`) to each
  requested start and time ``length`` transactions there.  Placement is
  the caller's: :func:`multi_window_sample` spaces the windows evenly
  (SMARTS), :mod:`repro.core.livesample` places them by stratum;
- :func:`multi_window_sample` -- SMARTS-style sampled measurement within
  one run, yielding several cycles-per-transaction observations per
  seed for the CI machinery at a fraction of a fully timed run's cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.config import RunConfig, SystemConfig
from repro.core.confidence import ConfidenceInterval, confidence_interval, estimate_sample_size
from repro.core.metrics import (
    VariabilitySummary,
    mean,
    sample_stddev,
    summarize,
)
from repro.core.runner import RunSample, run_space
from repro.system.checkpoint import Checkpoint, make_checkpoints
from repro.system.simulation import SimulationResult
from repro.workloads.base import Workload


@dataclass(frozen=True)
class AdaptiveStopRule:
    """Sequential sample-size control (paper 5.1.1, made adaptive).

    Stop collecting runs once the two-sided confidence interval's
    half-width is at most ``target_fraction`` of the sample mean -- the
    same precision criterion Cochran's formula targets, but evaluated on
    the *measured* variance as runs arrive instead of a prior estimate
    (Table 5 shows the right N varies per workload by an order of
    magnitude, so any fixed N over- or under-shoots somewhere).
    ``max_runs`` caps cost when the target is unreachable.
    """

    target_fraction: float = 0.02
    confidence: float = 0.95
    min_runs: int = 4
    max_runs: int = 100
    batch_size: int = 4

    def __post_init__(self) -> None:
        if self.target_fraction <= 0:
            raise ValueError("target_fraction must be positive")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if self.min_runs < 2:
            raise ValueError("min_runs must be at least 2 (variance needs two runs)")
        if self.max_runs < self.min_runs:
            raise ValueError("max_runs must be >= min_runs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")

    def satisfied_by(self, values: Sequence[float]) -> bool:
        """Whether the precision target is met by these observations."""
        if len(values) < max(2, self.min_runs):
            return False
        ci = confidence_interval(values, self.confidence)
        if ci.mean == 0:
            return True
        return ci.half_width <= self.target_fraction * abs(ci.mean)

    def next_batch(self, values: Sequence[float]) -> int:
        """How many more runs to execute (0 = stop).

        Below ``min_runs``, fill to the minimum.  Afterwards, project the
        total sample size from the measured coefficient of variation
        (Cochran's n = (t*S/(r*Y))^2, the paper's estimator) and advance
        toward it at most ``batch_size`` runs at a time, never exceeding
        ``max_runs``.
        """
        n = len(values)
        if n >= self.max_runs:
            return 0
        if n < self.min_runs:
            return min(self.min_runs - n, self.max_runs - n)
        if self.satisfied_by(values):
            return 0
        m = mean(values)
        s = sample_stddev(values)
        if m == 0 or s == 0:
            return 0
        projected = estimate_sample_size(s / abs(m), self.target_fraction, self.confidence)
        needed = max(1, projected - n)
        return min(needed, self.batch_size, self.max_runs - n)


def windowed_cycles_per_transaction(
    result: SimulationResult, window: int
) -> list[float]:
    """Per-window cycles-per-transaction series from one run.

    Requires the run to have been collected with
    ``collect_transaction_times=True``.  Each value covers ``window``
    consecutive transaction completions; a trailing partial window is
    dropped (it would be quantization-biased).
    """
    if result.transaction_times is None:
        raise ValueError("run was not collected with transaction times")
    if window <= 0:
        raise ValueError("window must be positive")
    times = [t for t, _kind in result.transaction_times]
    series: list[float] = []
    previous = result.start_ns
    for i in range(window, len(times) + 1, window):
        end = times[i - 1]
        series.append((end - previous) * result.n_cpus / window)
        previous = end
    return series


def systematic_checkpoint_counts(
    lifetime_transactions: int, n_points: int, *, skip_initial: int | None = None
) -> list[int]:
    """Evenly spaced checkpoint positions over a workload lifetime.

    Systematic sampling (paper 5.2): starting points at fixed intervals.
    ``skip_initial`` skips the cold-start region (defaults to one
    interval).
    """
    if n_points <= 0 or lifetime_transactions <= 0:
        raise ValueError("need positive lifetime and point count")
    interval = lifetime_transactions // n_points
    if interval == 0:
        raise ValueError("more points than transactions")
    first = skip_initial if skip_initial is not None else interval
    return [first + i * interval for i in range(n_points)]


def random_checkpoint_counts(
    lifetime_transactions: int, n_points: int, *, seed: int = 1, skip_initial: int = 0
) -> list[int]:
    """Uniformly random starting points (paper 5.2 lists alternatives to
    systematic sampling as future work).

    Deterministic given ``seed``; returned sorted and de-duplicated by
    small nudges, so a forward pass can record all checkpoints.
    """
    from repro.sim.rng import RandomStream

    if n_points <= 0 or lifetime_transactions <= skip_initial:
        raise ValueError("need positive point count and room after skip_initial")
    stream = RandomStream(seed=seed)
    points = sorted(
        skip_initial + 1 + stream.randint(0, lifetime_transactions - skip_initial - 1)
        for _ in range(n_points)
    )
    # make_checkpoints requires strictly increasing counts
    for i in range(1, len(points)):
        if points[i] <= points[i - 1]:
            points[i] = points[i - 1] + 1
    return points


def stratified_checkpoint_counts(
    lifetime_transactions: int, n_points: int, *, seed: int = 1
) -> list[int]:
    """Stratified sampling: one uniformly random point per equal stratum.

    Combines systematic sampling's coverage guarantee with random
    sampling's phase-alignment immunity (a periodic workload phase cannot
    alias against a fixed sampling interval).
    """
    from repro.sim.rng import RandomStream

    if n_points <= 0 or lifetime_transactions < n_points:
        raise ValueError("need positive point count within the lifetime")
    stream = RandomStream(seed=seed)
    stratum = lifetime_transactions // n_points
    points = []
    for i in range(n_points):
        low = i * stratum
        point = low + 1 + stream.randint(0, stratum - 1) if stratum > 1 else low + 1
        if points and point <= points[-1]:
            point = points[-1] + 1
        points.append(point)
    return points


@dataclass
class CheckpointStudy:
    """Runs-from-multiple-starting-points data (Figure 9)."""

    checkpoint_transactions: list[int]
    samples: list[RunSample]

    @property
    def groups(self) -> list[list[float]]:
        """Per-checkpoint metric groups (ANOVA input)."""
        return [sample.values for sample in self.samples]

    def summaries(self) -> list[VariabilitySummary]:
        """Per-checkpoint variability summaries."""
        return [summarize(group) for group in self.groups]

    def between_checkpoint_spread_percent(self) -> float:
        """Max relative difference between checkpoint means (percent).

        The paper quotes >16 % for OLTP (30K vs 40K checkpoints) and
        >36 % for SPECjbb (100K vs 400K).
        """
        means = [s.mean for s in self.summaries()]
        return 100.0 * (max(means) - min(means)) / min(means)


def checkpoint_study(
    config: SystemConfig,
    workload: Workload,
    checkpoint_transactions: list[int],
    run: RunConfig,
    n_runs: int,
    *,
    checkpoints: list[Checkpoint] | None = None,
    n_jobs: int = 1,
) -> CheckpointStudy:
    """Run ``n_runs`` perturbed simulations from each starting point.

    ``checkpoints`` may be supplied (e.g. loaded from disk); otherwise one
    forward execution records them at the requested transaction counts.
    """
    if checkpoints is None:
        checkpoints = make_checkpoints(config, workload, checkpoint_transactions)
    if len(checkpoints) != len(checkpoint_transactions):
        raise ValueError("checkpoint list does not match transaction counts")
    samples = [
        run_space(
            config,
            workload,
            run,
            n_runs,
            checkpoint=checkpoint,
            n_jobs=n_jobs,
        )
        for checkpoint in checkpoints
    ]
    return CheckpointStudy(
        checkpoint_transactions=list(checkpoint_transactions), samples=samples
    )


@dataclass(frozen=True)
class WindowMeasurement:
    """One timed measurement window inside a sampled run."""

    start_ns: int
    end_ns: int
    transactions: int
    cycles_per_transaction: float

    @property
    def valid(self) -> bool:
        """Whether the window completed any transactions (a window that
        completed none carries no metric and is excluded from CIs)."""
        return self.transactions > 0


@dataclass
class MultiWindowSample:
    """Several per-window observations from one seed's execution.

    The per-window cycles-per-transaction values feed the same CI
    machinery as per-seed samples (:mod:`repro.core.confidence`);
    windows of one run are serially correlated (they share lifetime
    phase and warm state), so their CI describes within-run measurement
    precision, not the across-seed space variability of ``run_space``.
    """

    windows: list[WindowMeasurement] = field(default_factory=list)
    n_cpus: int = 1
    seed: int = 0
    timed_out: bool = False

    @property
    def values(self) -> list[float]:
        """Cycles per transaction of each valid window, in order."""
        return [w.cycles_per_transaction for w in self.windows if w.valid]

    @property
    def n_valid(self) -> int:
        """Windows that completed at least one transaction."""
        return sum(1 for w in self.windows if w.valid)

    def interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Confidence interval over the valid windows' metrics."""
        return confidence_interval(self.values, confidence)


def start_sampled_run(machine, run: RunConfig, warmup_mode: str):
    """Seed ``machine``'s perturbation stream from ``run.seed`` and pay
    the warm-up leg of ``run.warmup_transactions`` under ``warmup_mode``;
    returns ``machine``.

    ``machine`` must be fresh -- built, materialized or cloned, never
    run -- so every pass of a sampled run starts from the same initial
    conditions and the same stream, like any other run of that seed.
    """
    from repro.sim.rng import stream_seed

    machine.hierarchy.seed_perturbation(stream_seed(run.seed, "perturbation"))
    if run.warmup_transactions:
        machine.advance_to_transactions(
            machine.completed_transactions + run.warmup_transactions,
            run.max_time_ns,
            warmup_mode,
        )
    return machine


def timed_windows(
    machine, run: RunConfig, starts: Sequence[int], length: int
) -> tuple[list[WindowMeasurement], bool]:
    """Time a ``length``-transaction window at each of ``starts``.

    ``starts`` are ascending transaction offsets from where ``machine``
    stands (after :func:`start_sampled_run`).  Before each window the
    machine fast-forwards functionally to its start; the window then
    runs under the timing model until ``length`` more transactions
    complete.  Both engines stop exactly on target, so a window's clock
    span begins after the fast-forward's event-loop re-arm and no
    transaction counts in two windows.  A window of a program that ends
    early times what is left (possibly nothing: it is then invalid).
    Stops at the first timeout; returns the windows and ``timed_out``.
    """
    origin = machine.completed_transactions
    n_cpus = machine.config.n_cpus
    windows: list[WindowMeasurement] = []
    for start in starts:
        if machine.timed_out:
            break
        if machine.completed_transactions < origin + start:
            machine.fast_forward_transactions(origin + start, max_time_ns=run.max_time_ns)
            if machine.timed_out:
                break
        start_txns = machine.completed_transactions
        start_ns = machine.clock.now
        end_ns = machine.run_until_transactions(
            start_txns + length, max_time_ns=run.max_time_ns
        )
        measured = machine.completed_transactions - start_txns
        windows.append(
            WindowMeasurement(
                start_ns=start_ns,
                end_ns=end_ns,
                transactions=measured,
                cycles_per_transaction=(
                    (end_ns - start_ns) * n_cpus / measured if measured else 0.0
                ),
            )
        )
    return windows, machine.timed_out


def multi_window_sample(
    config: SystemConfig,
    workload: Workload | str,
    run: RunConfig,
    *,
    n_windows: int,
    skip_transactions: int | None = None,
    checkpoint: Checkpoint | None = None,
) -> MultiWindowSample:
    """Alternate fast-forward and timed windows within one run (SMARTS).

    The evenly spaced placement of :func:`timed_windows`: after a
    functional warm-up of ``run.warmup_transactions``, window ``i``
    times transactions ``[warmup + i*(measured+skip), ... + measured)``
    of the lifetime, where ``measured`` is ``run.measured_transactions``
    and ``skip`` is ``skip_transactions`` (default: ``measured``).  The
    skips between windows are functional and the run ends with its last
    window.  Each window contributes one cycles-per-transaction
    observation; the run's perturbation stream is seeded once from
    ``run.seed``, so the whole sampled execution is deterministic
    (locked by the boundary tests in ``tests/test_sampling.py``).

    ``checkpoint`` starts from captured initial conditions instead of a
    cold boot, exactly as :func:`repro.system.simulation.run_simulation`.
    For behaviour-aware window *placement* instead of a fixed cadence,
    see :func:`repro.core.livesample.live_window_sample`.
    """
    from repro.system.machine import Machine
    from repro.workloads.registry import make_workload

    if n_windows <= 0:
        raise ValueError("n_windows must be positive")
    measured = run.measured_transactions
    if measured <= 0:
        raise ValueError("windows need run.measured_transactions > 0")
    if skip_transactions is None:
        skip_transactions = measured

    if isinstance(workload, str):
        workload = make_workload(workload)
    if checkpoint is not None:
        machine = checkpoint.materialize(config)
    else:
        machine = Machine(config, workload)
    windows, timed_out = timed_windows(
        start_sampled_run(machine, run, "functional"),
        run,
        [i * (measured + skip_transactions) for i in range(n_windows)],
        measured,
    )
    return MultiWindowSample(
        windows=windows, n_cpus=config.n_cpus, seed=run.seed, timed_out=timed_out
    )
