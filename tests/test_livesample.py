"""Live sampling: detector, stratifier, allocator, estimator, and the
end-to-end accuracy gate.

The hypothesis property tests lock the allocator's contract (sums to
budget, permutation-equivariant, zero-variance strata floored) and the
detector's (fires on a step, structurally silent on sub-floor noise).
The end-to-end gate runs a two-phase scripted workload and requires
live sampling to reach its CI target with fewer timed window-cycles
than a fixed cadence spanning the same region -- the property the whole
subsystem exists for.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RunConfig, SystemConfig
from repro.core.confidence import confidence_interval
from repro.core.livesample import (
    LIVE_INTERVALS,
    OnlinePhaseDetector,
    detect_phases,
    live_window_sample,
    measure_live,
    neyman_allocation,
    stratified_confidence_interval,
    stratify,
)
from repro.core.request import RunRequest, WorkloadSpec, execute_request
from repro.core.sampling import multi_window_sample
from repro.probes.bus import ProbeBus
from repro.probes.collectors import PhaseSignatureProbe
from repro.system.machine import Machine
from repro.workloads.base import Op, Workload, WorkloadClock, WorkloadProgram

from tests.conftest import CODE

# ---------------------------------------------------------------------------
# Neyman allocation properties
# ---------------------------------------------------------------------------

weights_st = st.lists(
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


@st.composite
def allocation_problems(draw):
    weights = draw(weights_st)
    n = len(weights)
    stddevs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    budget = draw(st.integers(min_value=n, max_value=200))
    return budget, weights, stddevs


class TestNeymanAllocation:
    @settings(max_examples=200, deadline=None)
    @given(problem=allocation_problems())
    def test_sums_exactly_to_budget(self, problem):
        budget, weights, stddevs = problem
        allocation = neyman_allocation(budget, weights, stddevs)
        assert sum(allocation) == budget
        assert all(a >= 1 for a in allocation)

    @settings(max_examples=200, deadline=None)
    @given(
        stddevs=st.lists(
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        budget_slack=st.integers(min_value=0, max_value=100),
        seed=st.randoms(use_true_random=False),
    )
    def test_permutation_equivariant(self, stddevs, budget_slack, seed):
        """Shuffling the strata shuffles the allocation identically --
        tie-breaks are value-based, never index-based.  Distinct stddevs
        with equal weights make every share distinct, so the allocation
        is uniquely determined by value."""
        n = len(stddevs)
        weights = [1.0] * n
        budget = n + budget_slack
        base = neyman_allocation(budget, weights, stddevs)
        order = list(range(n))
        seed.shuffle(order)
        shuffled = neyman_allocation(
            budget, [weights[i] for i in order], [stddevs[i] for i in order]
        )
        assert shuffled == [base[i] for i in order]

    @settings(max_examples=100, deadline=None)
    @given(
        positive=st.lists(
            st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        n_zero=st.integers(min_value=1, max_value=4),
        budget_slack=st.integers(min_value=0, max_value=50),
    )
    def test_zero_variance_strata_get_exactly_the_floor(
        self, positive, n_zero, budget_slack
    ):
        """A stratum that measured no variance contributes nothing to the
        stratified variance, so extra windows there are wasted: it keeps
        the floor while strata with spread absorb the remainder."""
        stddevs = positive + [0.0] * n_zero
        weights = [1.0] * len(stddevs)
        budget = len(stddevs) + budget_slack
        allocation = neyman_allocation(budget, weights, stddevs)
        for h in range(len(positive), len(stddevs)):
            assert allocation[h] == 1
        assert sum(allocation) == budget

    def test_all_zero_variance_falls_back_to_weights(self):
        # Still must spend the budget: weight-proportional is the only
        # defensible split when no stratum has measured spread.
        assert neyman_allocation(8, [3.0, 1.0], [0.0, 0.0]) == [6, 2]

    def test_allocation_favours_spread(self):
        # Classic Neyman: equal weights, 3x the stddev -> ~3x the windows.
        assert neyman_allocation(10, [0.5, 0.5], [1.0, 3.0]) == [3, 7]

    def test_validations(self):
        with pytest.raises(ValueError, match="at least one stratum"):
            neyman_allocation(5, [], [])
        with pytest.raises(ValueError, match="equal length"):
            neyman_allocation(5, [1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="floor"):
            neyman_allocation(1, [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            neyman_allocation(5, [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            neyman_allocation(5, [1.0, 1.0], [-1.0, 1.0])


# ---------------------------------------------------------------------------
# Change-point detector properties
# ---------------------------------------------------------------------------


class TestOnlinePhaseDetector:
    @settings(max_examples=100, deadline=None)
    @given(
        base=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        jump=st.floats(min_value=2.0, max_value=10.0, allow_nan=False),
        pre=st.integers(min_value=4, max_value=12),
        post=st.integers(min_value=2, max_value=8),
    )
    def test_fires_on_step_signal(self, base, jump, pre, post):
        """A level shift of at least 2x fires the detector at exactly the
        step index: the relative floor caps the z denominator at
        ``rel_floor * base``, so the step's score is at least
        ``(jump-1)/rel_floor`` = 20 standard units, far over threshold."""
        detector = OnlinePhaseDetector()
        sigs = [{"x": base}] * pre + [{"x": base * jump}] * post
        fired = [detector.observe(s) for s in sigs]
        assert detector.change_points == [pre]
        assert fired[pre + detector.patience - 1] == pre

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        noise=st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=8,
            max_size=40,
        ),
    )
    def test_silent_on_sub_floor_noise(self, base, noise):
        """Jitter below ``threshold * rel_floor`` of the level can never
        fire the detector, whatever the sample variance does: the score
        denominator is floored at ``rel_floor * |mean|``, so the worst
        possible z of a point within ``r * base`` of the running mean is
        ``r / rel_floor`` -- structural, not probabilistic."""
        detector = OnlinePhaseDetector()
        # amplitude strictly under threshold * rel_floor / 2 of the level
        # (mean can sit anywhere inside the band, so allow the full span)
        amp = 0.49 * detector.threshold * detector.rel_floor * base
        for e in noise:
            detector.observe({"x": base + amp * e})
        assert detector.change_points == []

    def test_single_outlier_absorbed(self):
        detector = OnlinePhaseDetector()
        sigs = [{"x": 10.0}] * 6 + [{"x": 30.0}] + [{"x": 10.0}] * 6
        for s in sigs:
            detector.observe(s)
        assert detector.change_points == []

    def test_new_dimension_counts_as_change(self):
        """A feature that only appears mid-stream (e.g. a transaction
        type first seen in phase B) scores against an all-zero history."""
        detector = OnlinePhaseDetector()
        sigs = [{"x": 10.0}] * 6 + [{"x": 10.0, "txn_mix_3": 0.5}] * 3
        for s in sigs:
            detector.observe(s)
        assert detector.change_points == [6]

    def test_validations(self):
        with pytest.raises(ValueError, match="min_intervals"):
            OnlinePhaseDetector(min_intervals=1)
        with pytest.raises(ValueError, match="threshold"):
            OnlinePhaseDetector(threshold=0)
        with pytest.raises(ValueError, match="patience"):
            OnlinePhaseDetector(patience=0)


class TestDetectAndStratify:
    def test_segments_partition_the_series(self):
        sigs = [{"x": 1.0}] * 7 + [{"x": 9.0}] * 5 + [{"x": 1.0}] * 6
        segments, change_points = detect_phases(sigs)
        covered = [i for s in segments for i in range(s.start, s.end)]
        assert covered == list(range(len(sigs)))
        assert change_points == [7, 12]

    def test_recurring_phase_is_one_stratum(self):
        """A ... B ... A again: three segments, two strata -- and the
        recurring stratum holds both A ranges."""
        sigs = [{"x": 1.0}] * 7 + [{"x": 9.0}] * 5 + [{"x": 1.0}] * 6
        segments, _ = detect_phases(sigs)
        strata = stratify(segments)
        assert len(segments) == 3
        assert len(strata) == 2
        assert sorted(strata[0].intervals) == list(range(0, 7)) + list(
            range(12, 18)
        )
        assert strata[1].intervals == list(range(7, 12))

    def test_uniform_series_is_one_stratum(self):
        segments, change_points = detect_phases([{"x": 5.0}] * 10)
        assert change_points == []
        strata = stratify(segments)
        assert len(strata) == 1
        assert strata[0].size == 10

    def test_empty_series(self):
        assert detect_phases([]) == ([], [])


# ---------------------------------------------------------------------------
# Stratified estimator
# ---------------------------------------------------------------------------

values_st = st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=30,
)


class TestStratifiedConfidenceInterval:
    @settings(max_examples=200, deadline=None)
    @given(values=values_st, confidence=st.sampled_from([0.90, 0.95, 0.99]))
    def test_single_stratum_degenerates_to_plain_interval(
        self, values, confidence
    ):
        """One stratum covering everything IS the unstratified estimate:
        same mean, same half-width, same t-vs-normal switch."""
        stratified = stratified_confidence_interval([values], [1.0], confidence)
        plain = confidence_interval(values, confidence)
        assert stratified.mean == pytest.approx(plain.mean)
        assert stratified.half_width == pytest.approx(
            plain.half_width, rel=1e-9, abs=1e-12
        )
        assert stratified.n == plain.n

    @settings(max_examples=100, deadline=None)
    @given(
        a=values_st,
        b=values_st,
        wa=st.floats(min_value=0.1, max_value=5.0),
        wb=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_mean_is_weight_normalized(self, a, b, wa, wb):
        ci = stratified_confidence_interval([a, b], [wa, wb])
        expected = (wa * sum(a) / len(a) + wb * sum(b) / len(b)) / (wa + wb)
        assert ci.mean == pytest.approx(expected)
        assert ci.lower <= ci.mean <= ci.upper

    def test_stratification_beats_pooling_on_phased_data(self):
        """The point of the construction: two tight clusters far apart
        give a much tighter stratified interval than the pooled one."""
        a = [100.0, 101.0, 99.0, 100.5]
        b = [500.0, 502.0, 498.0, 499.5]
        stratified = stratified_confidence_interval([a, b], [0.5, 0.5])
        pooled = confidence_interval(a + b)
        assert stratified.half_width < pooled.half_width / 10
        assert stratified.mean == pytest.approx(pooled.mean)

    def test_single_observation_stratum_adopts_worst_stddev(self):
        ci = stratified_confidence_interval([[10.0, 12.0], [50.0]], [0.5, 0.5])
        # the singleton stratum contributes the other stratum's stddev
        s = math.sqrt(2.0)  # sample stddev of [10, 12]
        var = (0.5 * s) ** 2 / 2 + (0.5 * s) ** 2 / 1
        assert ci.mean == pytest.approx(0.5 * 11.0 + 0.5 * 50.0)
        assert ci.half_width > 0
        assert ci.half_width == pytest.approx(
            ci.half_width / (math.sqrt(var)) * math.sqrt(var)
        )

    def test_zero_variance_degenerates(self):
        ci = stratified_confidence_interval([[5.0, 5.0], [7.0, 7.0]], [1.0, 1.0])
        assert ci.mean == ci.lower == ci.upper == 6.0

    def test_validations(self):
        with pytest.raises(ValueError, match="at least one stratum"):
            stratified_confidence_interval([], [])
        with pytest.raises(ValueError, match="equal length"):
            stratified_confidence_interval([[1.0, 2.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="at least one observation"):
            stratified_confidence_interval([[1.0, 2.0], []], [1.0, 1.0])
        with pytest.raises(ValueError, match="two observations"):
            stratified_confidence_interval([[1.0], [2.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            stratified_confidence_interval([[1.0, 2.0]], [0.0])


# ---------------------------------------------------------------------------
# The two-phase scripted workload (the E2E fixture)
# ---------------------------------------------------------------------------

#: shared data the contended phase writes (one hot line + a neighbour)
SHARED = 0x1000_0000
#: per-thread private data for the compute phase
PRIVATE = 0x2000_0000


class TwoPhaseProgram(WorkloadProgram):
    """Compute-bound until ``switch_at`` lifetime transactions, then
    lock-serialized shared writes -- a single sharp phase change."""

    global_queue = False

    def __init__(self, name, tid, seed, clock, switch_at, repeats):
        super().__init__(name, tid, seed, clock)
        self.switch_at = switch_at
        self.repeats = repeats

    def build_transaction(self) -> list[Op]:
        if self.txn_index >= self.repeats:
            self.finished = True
            return [("txn_end", 0)]
        if self.clock.total_transactions < self.switch_at:
            # Phase A: private compute, no sharing, no locks.
            ops: list[Op] = [
                ("cpu", 400, CODE),
                ("mem", PRIVATE + self.tid * 0x10000, 0),
                ("cpu", 200, CODE),
            ]
            return ops + [("txn_end", 0)]
        # Phase B: serialized critical section over shared lines.
        ops = [
            ("lock", 7),
            ("mem", SHARED, 1),
            ("mem", SHARED + 64, 1),
            ("unlock", 7),
            ("io", 3000),
        ]
        return ops + [("txn_end", 1)]


class TwoPhaseWorkload(Workload):
    name = "twophase"

    def __init__(self, switch_at, repeats=4000, threads=2, seed=1):
        super().__init__(seed=seed)
        self.switch_at = switch_at
        self.repeats = repeats
        self.threads = threads

    def n_threads(self, n_cpus: int) -> int:
        return self.threads

    def make_program(self, tid: int, clock: WorkloadClock) -> TwoPhaseProgram:
        return TwoPhaseProgram(
            self.name, tid, self.seed, clock, self.switch_at, self.repeats
        )


class TestPhaseSignatureProbe:
    def test_signatures_separate_the_phases(self):
        """The functional survey's feature vectors actually move at the
        phase boundary: phase A shows no lock traffic, phase B does."""
        config = SystemConfig(n_cpus=2).with_perturbation(0)
        machine = Machine(config, TwoPhaseWorkload(switch_at=60))
        probe = PhaseSignatureProbe(20)
        bus = ProbeBus()
        bus.attach(probe)
        machine.attach_probes(bus)
        machine.fast_forward_transactions(120, max_time_ns=10**14)
        machine.detach_probes()
        assert len(probe.signatures) == 6
        a, b = probe.signatures[0], probe.signatures[-1]
        assert a["lock_blocks_per_txn"] == 0.0
        assert b.get("txn_mix_1", 0.0) > 0.9
        assert a.get("txn_mix_0", 0.0) > 0.9

    def test_partial_interval_dropped(self):
        probe = PhaseSignatureProbe(10)
        for _ in range(25):
            probe.on_txn(0, 0, 0)
        assert len(probe.signatures) == 2

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="positive"):
            PhaseSignatureProbe(0)


# ---------------------------------------------------------------------------
# The live sampler end to end
# ---------------------------------------------------------------------------

N_INTERVALS = 12
INTERVAL_TXNS = 20
WARMUP = 40
#: phase boundary at the middle of the measured region
SWITCH_AT = WARMUP + (N_INTERVALS // 2) * INTERVAL_TXNS
E2E_CONFIG = SystemConfig(n_cpus=2)
E2E_RUN = RunConfig(
    measured_transactions=INTERVAL_TXNS, warmup_transactions=WARMUP, seed=5
)


def two_phase_sample(**kwargs):
    defaults = dict(
        n_intervals=N_INTERVALS,
        interval_transactions=INTERVAL_TXNS,
        budget_windows=6,
        target_fraction=0.05,
        machine_factory=lambda: Machine(
            E2E_CONFIG, TwoPhaseWorkload(switch_at=SWITCH_AT)
        ),
    )
    defaults.update(kwargs)
    return live_window_sample(E2E_CONFIG, None, E2E_RUN, **defaults)


class TestLiveWindowSample:
    def test_detects_the_phase_boundary(self):
        sample = two_phase_sample()
        assert sample.change_points == [N_INTERVALS // 2]
        assert len(sample.strata) == 2
        assert sorted(sample.strata[0].intervals) == list(range(0, 6))
        assert sorted(sample.strata[1].intervals) == list(range(6, 12))

    def test_each_stratum_is_measured(self):
        sample = two_phase_sample()
        assert all(s.n >= 2 for s in sample.strata)
        # phase B (locks + io) is much slower than phase A (pure compute)
        assert sample.strata[1].mean_value > 2 * sample.strata[0].mean_value

    def test_deterministic(self):
        a = two_phase_sample()
        b = two_phase_sample()
        assert [w.cycles_per_transaction for w in a.windows] == [
            w.cycles_per_transaction for w in b.windows
        ]
        assert a.point_estimate == b.point_estimate

    def test_budget_respected_and_windows_exact(self):
        sample = two_phase_sample()
        assert sample.n_timed_windows <= 6
        # exact boundary accounting: every window timed exactly its
        # interval -- no transaction is counted twice and none is lost
        assert all(w.transactions == INTERVAL_TXNS for w in sample.windows)
        # each measurement pass places windows at ascending intervals
        # with monotonically later clock spans; a skip-separated pair
        # cannot overlap at all (contiguous windows may overlap by the
        # per-CPU local-time skew at the boundary, but never by a whole
        # transaction -- the transaction counts above are exact)
        for earlier, later in zip(sample.windows, sample.windows[1:]):
            if later.interval <= earlier.interval:
                continue  # a new pass restarted the clock
            assert later.start_ns > earlier.start_ns
            if later.interval > earlier.interval + 1:
                assert later.start_ns >= earlier.end_ns

    def test_early_stop_saves_budget(self):
        """With a loose target the sampler stops at the pilots; with no
        target it spends the whole budget."""
        lazy = two_phase_sample(target_fraction=0.5)
        exhaustive = two_phase_sample(target_fraction=None)
        assert lazy.n_timed_windows < exhaustive.n_timed_windows
        assert exhaustive.n_timed_windows == 6

    def test_timed_cost_below_full_region(self):
        sample = two_phase_sample()
        assert sample.timed_transactions <= 6 * INTERVAL_TXNS
        assert sample.timed_transactions < N_INTERVALS * INTERVAL_TXNS / 2 + 1

    def test_summary_is_json_safe(self):
        import json

        sample = two_phase_sample()
        payload = json.loads(json.dumps(sample.summary()))
        assert payload["n_strata"] == 2
        assert payload["change_points"] == [N_INTERVALS // 2]
        assert payload["timed_transactions"] == sample.timed_transactions
        assert payload["half_width"] > 0

    def test_registry_workload_path(self):
        """Without a machine_factory the sampler resolves the workload
        from the registry and re-instantiates it per pass."""
        run = RunConfig(measured_transactions=10, warmup_transactions=20, seed=5)
        sample = live_window_sample(
            SystemConfig(n_cpus=2),
            "oltp",
            run,
            n_intervals=8,
            budget_windows=4,
        )
        assert sample.n_timed_windows == 4
        assert sample.point_estimate > 0

    def test_validations(self):
        with pytest.raises(ValueError, match="two intervals"):
            two_phase_sample(n_intervals=1)
        with pytest.raises(ValueError, match="budget_windows"):
            two_phase_sample(budget_windows=1)
        with pytest.raises(ValueError, match="pilot_windows"):
            two_phase_sample(pilot_windows=0)
        with pytest.raises(ValueError, match="warm-up mode"):
            two_phase_sample(warmup_mode="psychic")
        with pytest.raises(ValueError, match="target_fraction"):
            two_phase_sample(target_fraction=-0.1)
        with pytest.raises(ValueError, match="machine_factory"):
            live_window_sample(E2E_CONFIG, None, E2E_RUN, n_intervals=4)


class TestAccuracyGate:
    """The E2E gate: live sampling must reach its precision target with
    fewer timed window-cycles than fixed-cadence sampling of the same
    region, while agreeing with the exhaustively-timed result."""

    def full_timed_truth(self) -> float:
        """Time the entire measured region contiguously (no sampling)."""
        machine = Machine(E2E_CONFIG, TwoPhaseWorkload(switch_at=SWITCH_AT))
        from repro.sim.rng import stream_seed

        machine.hierarchy.seed_perturbation(stream_seed(E2E_RUN.seed, "perturbation"))
        machine.fast_forward_transactions(WARMUP, max_time_ns=10**14)
        start_ns = machine.clock.now
        start_txns = machine.completed_transactions
        end_ns = machine.run_until_transactions(
            start_txns + N_INTERVALS * INTERVAL_TXNS, max_time_ns=10**14
        )
        measured = machine.completed_transactions - start_txns
        return (end_ns - start_ns) * E2E_CONFIG.n_cpus / measured

    def test_live_agrees_with_full_run_and_beats_fixed_cadence(self):
        live = two_phase_sample()
        truth = self.full_timed_truth()
        ci = live.interval()

        # accuracy: the exhaustive answer lies within the live CI
        assert abs(live.point_estimate - truth) <= ci.half_width

        # the fixed cadence spanning the same region: 6 windows of the
        # same length every other interval (SMARTS-style), timing the
        # same number of transactions as the live budget allows
        fixed = multi_window_sample(
            E2E_CONFIG,
            TwoPhaseWorkload(switch_at=SWITCH_AT),
            E2E_RUN,
            n_windows=6,
            skip_transactions=INTERVAL_TXNS,
        )
        fixed_timed = sum(w.transactions for w in fixed.windows)

        # precision per timed transaction: live spent strictly less than
        # the cadence and achieved a far tighter interval -- the cadence
        # straddles the phase boundary, so its between-window variance
        # carries the full phase contrast
        assert live.timed_transactions < fixed_timed
        assert ci.half_width < fixed.interval().half_width / 2

        # ...and the estimate is accurate in absolute terms as well
        assert abs(live.point_estimate - truth) / truth < 0.05


class TestMeasureLive:
    CONFIG = SystemConfig(n_cpus=2)
    RUN = RunConfig(measured_transactions=64, warmup_transactions=20, seed=5)

    def request(self, **kwargs):
        return RunRequest(
            config=self.CONFIG,
            workload=WorkloadSpec(
                name="oltp", seed=1, params=(("threads_per_cpu", 2),)
            ),
            run=self.RUN,
            sampling_mode="live",
            **kwargs,
        )

    def test_execute_request_live_shape(self):
        result = execute_request(self.request())
        assert result.cycles_per_transaction > 0
        # the timing-model cost is the timed windows only -- at most the
        # budget fraction of the region
        assert result.measured_transactions <= self.RUN.measured_transactions // 2
        summary = result.stats["livesample"]
        assert summary["timed_transactions"] == result.measured_transactions
        assert summary["n_intervals"] <= LIVE_INTERVALS

    def test_execute_request_live_deterministic(self):
        a = execute_request(self.request())
        b = execute_request(self.request())
        assert a.cycles_per_transaction == b.cycles_per_transaction
        assert a.to_dict() == b.to_dict()

    def test_live_and_fixed_results_differ_but_agree(self):
        """Live estimates the same quantity fixed measures exhaustively:
        different numbers (different execution), same ballpark."""
        live = execute_request(self.request())
        fixed = execute_request(
            RunRequest(
                config=self.CONFIG,
                workload=WorkloadSpec(
                    name="oltp", seed=1, params=(("threads_per_cpu", 2),)
                ),
                run=self.RUN,
            )
        )
        assert live.cycles_per_transaction != fixed.cycles_per_transaction
        ratio = live.cycles_per_transaction / fixed.cycles_per_transaction
        assert 0.5 < ratio < 2.0

    def test_round_trips_through_store_serialization(self):
        from repro.system.simulation import SimulationResult

        result = execute_request(self.request())
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored.cycles_per_transaction == result.cycles_per_transaction
        assert restored.stats["livesample"] == result.stats["livesample"]

    def test_too_short_region_rejected(self):
        with pytest.raises(ValueError, match="at least two intervals"):
            measure_live(
                lambda: Machine(self.CONFIG, TwoPhaseWorkload(switch_at=10)),
                self.CONFIG,
                RunConfig(measured_transactions=1, warmup_transactions=0, seed=1),
            )


# ---------------------------------------------------------------------------
# One survey per cell
# ---------------------------------------------------------------------------


class TestSurveyOncePerCell:
    """The scout pass is functional, the functional engine never draws
    from the perturbation stream, so every seed of a cell surveys the
    same thing; sharing it must change nothing but the work done."""

    CONFIG = SystemConfig(n_cpus=4).with_rob_entries(64)
    RUN = RunConfig(measured_transactions=64, warmup_transactions=0, seed=40)
    SEEDS = range(40, 48)

    @pytest.fixture(scope="class")
    def factory(self):
        from repro.system.checkpoint import warm_checkpoint
        from repro.workloads.registry import make_workload

        checkpoint = warm_checkpoint(
            self.CONFIG,
            make_workload("oltp", threads_per_cpu=2),
            warmup_transactions=60,
        )
        return lambda: checkpoint.materialize(self.CONFIG)

    @pytest.fixture
    def surveys(self, monkeypatch):
        """Count scout passes."""
        import repro.core.livesample as livesample_mod

        calls = []
        real = livesample_mod._survey

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(livesample_mod, "_survey", counting)
        return calls

    def test_survey_does_not_depend_on_the_seed(self, factory):
        from dataclasses import replace

        from repro.core.livesample import _survey

        scouts = [
            _survey(
                factory,
                replace(self.RUN, seed=seed, warmup_transactions=10),
                n_intervals=16,
                interval_transactions=4,
            )
            for seed in self.SEEDS
        ]
        signatures, timed_out = scouts[0]
        assert len(signatures) == 16 and not timed_out
        for other_signatures, other_timed_out in scouts[1:]:
            assert list(other_signatures) == list(signatures)
            assert other_timed_out == timed_out

    def test_shared_memo_changes_no_result_field(self, factory, surveys):
        import copy
        from dataclasses import replace

        runs = [replace(self.RUN, seed=seed) for seed in self.SEEDS]
        alone = [measure_live(factory, self.CONFIG, run) for run in runs]
        assert len(surveys) == len(runs)
        # the seeds do differ -- the memo is not trivially safe
        assert len({r.cycles_per_transaction for r in alone}) > 1

        del surveys[:]
        memo: dict = {}
        shared = [measure_live(factory, self.CONFIG, runs[0], survey_memo=memo)]
        first_entry = copy.deepcopy(memo)
        shared += [
            measure_live(factory, self.CONFIG, run, survey_memo=memo)
            for run in runs[1:]
        ]
        assert len(surveys) == 1
        assert shared == alone  # dataclass equality: every field
        assert [r.to_dict() for r in shared] == [r.to_dict() for r in alone]
        # cached signatures are read, never written
        assert memo == first_entry and len(memo) == 1

    def test_memo_is_keyed_on_every_remaining_scout_input(self, factory, surveys):
        from dataclasses import replace

        variants = [
            self.RUN,
            replace(self.RUN, warmup_transactions=8),
            replace(self.RUN, max_time_ns=self.RUN.max_time_ns // 2),
            replace(self.RUN, measured_transactions=128),  # 16 intervals of 8
            replace(self.RUN, measured_transactions=8),  # 8 intervals of 1
        ]
        memo: dict = {}
        for run in variants:
            with_memo = measure_live(factory, self.CONFIG, run, survey_memo=memo)
            again = measure_live(
                factory, self.CONFIG, replace(run, seed=run.seed + 1), survey_memo=memo
            )
            assert with_memo == measure_live(factory, self.CONFIG, run)
            assert again == measure_live(
                factory, self.CONFIG, replace(run, seed=run.seed + 1)
            )
        assert len(memo) == len(variants)

    def test_a_resident_surveys_once_for_all_its_seeds(self, factory, surveys):
        from repro.core.fanout import SharedRunContext, execute_shared
        from repro.system.checkpoint import warm_checkpoint

        spec = WorkloadSpec.resolve("oltp", workload_params={"threads_per_cpu": 2})
        context = SharedRunContext(
            config=self.CONFIG,
            spec=spec,
            run=self.RUN,
            checkpoint=warm_checkpoint(self.CONFIG, spec.make(), warmup_transactions=60),
            sampling_mode="live",
        )
        results, failures = execute_shared(context, list(self.SEEDS)[:4])
        assert not failures and len(results) == 4
        assert len(surveys) == 1

    def test_live_campaign_bytes_do_not_depend_on_width(self, tmp_path):
        from repro.campaign import Campaign, CampaignSpec
        from repro.store import RunStore
        from tests.test_pipeline import fingerprint

        spec = CampaignSpec(
            configs=[
                ("base", self.CONFIG),
                ("dram=160", self.CONFIG.with_dram_latency(160)),
            ],
            workloads=[
                WorkloadSpec.resolve("oltp", workload_params={"threads_per_cpu": 2})
            ],
            run=RunConfig(measured_transactions=32, warmup_transactions=30, seed=40),
            n_runs=4,
            warm_start=True,
            sampling_mode="live",
        )
        serial_store, piped_store = RunStore(tmp_path / "1"), RunStore(tmp_path / "2")
        serial = Campaign(spec, serial_store, n_jobs=1).run()
        piped = Campaign(spec, piped_store, n_jobs=2).run()
        assert fingerprint(piped, piped_store) == fingerprint(serial, serial_store)
        assert all(
            "livesample" in result.stats
            for cell in serial.cells
            for result in cell.sample.results
        )
