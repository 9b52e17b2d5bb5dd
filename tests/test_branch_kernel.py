"""Bit-identity tests for the OOO core's per-batch branch kernel.

Each test carries its own reference -- the documented ``hash_u64``
composition of the branch stream, a predict-then-update YAGS built from
the predictor's public pieces, and the closed-form MLP factor -- and
requires the product code to agree exactly, including the insertion
order of the predictor dicts (``Checkpoint.digest`` hashes dicts in
iteration order, so a reordered insert would move every warm key).
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ProcessorConfig, SystemConfig
from repro.proc.base import BranchContext, branch_outcome
from repro.proc.branch import YagsPredictor
from repro.proc.ooo import (
    BRANCH_SAMPLES_PER_BATCH,
    INSTRUCTIONS_PER_BRANCH,
    MISPREDICT_EWMA,
    MLP_LOG_COEFF,
    STORE_VISIBILITY,
    OOOCore,
)
from repro.sim.rng import hash_u64


def reference_outcome(ctx: BranchContext, counter: int) -> tuple[int, bool, str, int]:
    """The branch stream's definition: five independent ``hash_u64`` folds."""
    slot = hash_u64(ctx.code_seed, counter, 11) % ctx.static_branches
    pc = ((ctx.code_seed & 0xFFFF) << 20) | (slot << 4)
    kind_draw = hash_u64(ctx.code_seed, counter, 13) % 1000
    if kind_draw < ctx.indirect_milli:
        kind = "indirect"
    elif kind_draw < ctx.indirect_milli + ctx.return_milli:
        kind = "return"
    else:
        kind = "cond"
    base_taken = hash_u64(ctx.code_seed, slot, 17) % 1000 < ctx.taken_bias_milli
    flip = hash_u64(ctx.code_seed, slot, counter, 19) % 1000 < ctx.flip_noise_milli
    taken = base_taken != flip
    target = pc + 64 + (hash_u64(ctx.code_seed, slot, counter // 32, 23) % 4) * 64
    return pc, taken, kind, target


code_seeds = st.one_of(
    st.integers(0, 2**16 - 1), st.integers(0, 2**40 - 1), st.integers(0, 2**64 - 1)
)
counters = st.one_of(st.integers(0, 4096), st.integers(0, 2**63))


class TestBranchOutcomeMatchesItsDefinition:
    @settings(max_examples=150, deadline=None)
    @given(
        code_seed=code_seeds,
        static_branches=st.sampled_from([1, 7, 64, 256, 1000]),
        taken_bias_milli=st.sampled_from([0, 300, 700, 1000]),
        flip_noise_milli=st.sampled_from([0, 40, 400, 1000]),
        indirect_milli=st.sampled_from([0, 30, 500]),
        return_milli=st.sampled_from([0, 60, 500]),
        counter_list=st.lists(counters, min_size=1, max_size=24),
    )
    def test_all_four_fields_equal_the_hash_composition(
        self,
        code_seed,
        static_branches,
        taken_bias_milli,
        flip_noise_milli,
        indirect_milli,
        return_milli,
        counter_list,
    ):
        ctx = BranchContext(
            code_seed=code_seed,
            static_branches=static_branches,
            taken_bias_milli=taken_bias_milli,
            flip_noise_milli=flip_noise_milli,
            indirect_milli=indirect_milli,
            return_milli=return_milli,
        )
        for counter in counter_list:
            assert branch_outcome(ctx, counter) == reference_outcome(ctx, counter)

    def test_every_kind_is_compared(self):
        """A dense sweep on the default mix reaches all three kinds, so the
        target field is checked where it is used and where it is not."""
        ctx = BranchContext(code_seed=0x5EED_1234_ABCD)
        kinds = set()
        for counter in range(6000):
            expected = reference_outcome(ctx, counter)
            assert branch_outcome(ctx, counter) == expected
            kinds.add(expected[2])
        assert kinds == {"cond", "indirect", "return"}

    def test_contexts_differing_only_in_counter_or_noise_share_nothing_stale(self):
        """Contexts with the same code but different knobs interleave without
        one's derived tables leaking into the other's outcomes."""
        variants = [
            BranchContext(code_seed=77),
            BranchContext(code_seed=77, taken_bias_milli=200),
            BranchContext(code_seed=77, static_branches=32),
            BranchContext(code_seed=77, flip_noise_milli=500, return_milli=300),
            BranchContext(code_seed=78),
        ]
        for counter in range(400):
            for ctx in variants:
                assert branch_outcome(ctx, counter) == reference_outcome(ctx, counter)

    def test_fields_changed_after_first_use_are_honoured(self):
        ctx = BranchContext(code_seed=5)
        branch_outcome(ctx, 0)
        ctx.taken_bias_milli = 100
        ctx.static_branches = 16
        for counter in range(300):
            assert branch_outcome(ctx, counter) == reference_outcome(ctx, counter)


class ReferenceYags(YagsPredictor):
    """The update rule as two walks: ``predict``, then the table updates."""

    def update(self, pc: int, taken: bool) -> bool:
        predicted = self.predict(pc)
        self.predictions += 1
        mispredicted = predicted != taken
        if mispredicted:
            self.mispredictions += 1
        choice_index = self.choice.index(pc >> 2)
        choice_taken = self.choice.read(choice_index) >= 2
        index = self._cache_index(pc)
        tag = self._tag(pc)
        if choice_taken and not taken:
            self._not_taken_tags[index] = tag
            self.not_taken_cache.update(index, taken)
        elif not choice_taken and taken:
            self._taken_tags[index] = tag
            self.taken_cache.update(index, taken)
        else:
            cache = self.not_taken_cache if choice_taken else self.taken_cache
            tags = self._not_taken_tags if choice_taken else self._taken_tags
            if tags.get(index) == tag:
                cache.update(index, taken)
        self.choice.update(choice_index, taken)
        self.history = ((self.history << 1) | int(taken)) & 0xFFF
        return mispredicted


def yags_state(yags: YagsPredictor) -> tuple:
    """Every table as an *ordered* item list, plus the scalars."""
    return (
        list(yags.choice._counters.items()),
        list(yags.taken_cache._counters.items()),
        list(yags.not_taken_cache._counters.items()),
        list(yags._taken_tags.items()),
        list(yags._not_taken_tags.items()),
        yags.history,
        yags.predictions,
        yags.mispredictions,
    )


class TestFusedYagsUpdate:
    def test_matches_predict_then_update_on_300k_branches(self):
        rng = random.Random(20030208)
        # Small tables so aliasing, tag replacement and saturation all occur.
        fused = YagsPredictor(choice_entries=256, cache_entries=64)
        reference = ReferenceYags(choice_entries=256, cache_entries=64)
        bias = {}
        for step in range(300_000):
            if step % 3 == 0:
                # uniformly random pc and direction
                pc = rng.getrandbits(30)
                taken = rng.random() < 0.5
            else:
                # a static set of biased branches, as the core sees them
                pc = (0x4D2 << 20) | (rng.randrange(512) << 4)
                p = bias.setdefault(pc, rng.choice((0.02, 0.3, 0.7, 0.98)))
                taken = rng.random() < p
            assert fused.update(pc, taken) == reference.update(pc, taken)
            if step % 4096 == 0:
                assert yags_state(fused) == yags_state(reference)
        assert yags_state(fused) == yags_state(reference)
        assert fused.mispredictions > 0

    def test_default_geometry_matches_too(self):
        rng = random.Random(7)
        fused, reference = YagsPredictor(), ReferenceYags()
        for _ in range(20_000):
            pc = (0x1234 << 20) | (rng.randrange(256) << 4)
            taken = rng.random() < (0.9 if pc & 0x10 else 0.2)
            assert fused.update(pc, taken) == reference.update(pc, taken)
        assert yags_state(fused) == yags_state(reference)

    def test_predict_agrees_with_the_next_update(self):
        rng = random.Random(3)
        yags = YagsPredictor(choice_entries=64, cache_entries=16)
        for _ in range(5000):
            pc = rng.randrange(1024) << 2
            taken = rng.random() < 0.6
            predicted = yags.predict(pc)
            assert yags.update(pc, taken) == (predicted != taken)


class ReferenceCore(OOOCore):
    """The sampling loop as first written: one full ``reference_outcome``
    per sampled branch, dispatched on the kind string, through a
    predict-then-update YAGS."""

    def __init__(self, config: SystemConfig, node: int) -> None:
        super().__init__(config, node)
        self.yags = ReferenceYags(
            choice_entries=config.processor.branch_predictor_entries
        )

    def _sample_branches(self, branch_ctx: BranchContext, n_branches: int) -> float:
        if n_branches <= 0:
            return 0.0
        samples = min(n_branches, BRANCH_SAMPLES_PER_BATCH)
        stride = max(1, n_branches // samples)
        sampled_mispredicts = 0
        for i in range(samples):
            counter = branch_ctx.counter + i * stride
            pc, taken, kind, target = reference_outcome(branch_ctx, counter)
            if kind == "indirect":
                mispredicted = self.indirect.update(pc, target)
            elif kind == "return":
                if counter % 16 != 0:
                    self.ras.push(target)
                mispredicted = self.ras.predict_return(target)
            else:
                mispredicted = self.yags.update(pc, taken)
            sampled_mispredicts += int(mispredicted)
        rate = sampled_mispredicts / samples
        self._mispredict_rate += MISPREDICT_EWMA * (rate - self._mispredict_rate)
        branch_ctx.counter += n_branches
        return rate * n_branches


def ordered_snapshot(core: OOOCore) -> dict:
    """``core.snapshot()`` with every dict as an ordered item list."""
    state = core.snapshot()
    for name in ("yags", "indirect"):
        state[name] = tuple(
            list(part.items()) if isinstance(part, dict) else part
            for part in state[name]
        )
    return state


class TestSamplingLoopMatchesItsDefinition:
    def test_times_and_predictor_state_over_context_switches(self):
        config = SystemConfig(processor=ProcessorConfig(model="ooo", rob_entries=64))
        core, reference = OOOCore(config, 0), ReferenceCore(config, 0)
        rng = random.Random(1)
        # Several threads of two programs share the core, as on a machine;
        # one starts deep into its stream, one has an odd static set.
        threads = [
            (BranchContext(code_seed=11), BranchContext(code_seed=11)),
            (BranchContext(code_seed=11, counter=10**6), BranchContext(code_seed=11, counter=10**6)),
            (
                BranchContext(code_seed=2**63 + 5, static_branches=37, flip_noise_milli=250),
                BranchContext(code_seed=2**63 + 5, static_branches=37, flip_noise_milli=250),
            ),
            (
                BranchContext(code_seed=12, indirect_milli=300, return_milli=300),
                BranchContext(code_seed=12, indirect_milli=300, return_milli=300),
            ),
        ]
        for batch in range(6000):
            mine, theirs = threads[rng.randrange(len(threads))]
            n = rng.choice((0, 3, 5, 9, 29, 30, 31, 100, 250, 1000))
            assert core.instruction_time(n, mine) == reference.instruction_time(n, theirs)
            assert mine == theirs
            if batch % 500 == 0:
                assert ordered_snapshot(core) == ordered_snapshot(reference)
        assert ordered_snapshot(core) == ordered_snapshot(reference)
        assert core.load_stall(180, "memory") == int(180 / closed_form_mlp(reference))
        assert core.indirect.predictions > 100 and core.ras.predictions > 100
        assert core.yags.mispredictions > 100


def closed_form_mlp(core: OOOCore) -> float:
    per_mispredict = INSTRUCTIONS_PER_BRANCH / max(core._mispredict_rate, 1e-3)
    window = min(core.rob_entries, per_mispredict)
    if window <= core.width:
        return 1.0
    return 1.0 + MLP_LOG_COEFF * math.log2(window / core.width)


def assert_stalls_follow_rate(core: OOOCore) -> None:
    mlp = closed_form_mlp(core)
    assert core._mlp() == mlp
    for latency in (1, 37, 180, 1001):
        assert core.load_stall(latency, "memory") == int(latency / mlp)
        assert core.store_stall(latency, "cache") == int(
            latency * STORE_VISIBILITY / mlp
        )


class TestMlpFollowsTheMispredictRate:
    def config(self, rob: int) -> SystemConfig:
        return SystemConfig(processor=ProcessorConfig(model="ooo", rob_entries=rob))

    def test_fresh_core(self):
        for rob in (4, 16, 64, 256):
            assert_stalls_follow_rate(OOOCore(self.config(rob), 0))

    def test_after_every_batch(self):
        core = OOOCore(self.config(64), 0)
        ctx = BranchContext(code_seed=99, flip_noise_milli=200)
        rates = set()
        for batch in range(300):
            core.instruction_time(20 + 7 * (batch % 9), ctx)
            rates.add(core._mispredict_rate)
            assert_stalls_follow_rate(core)
        assert len(rates) > 10

    def test_batches_without_branches_leave_it_alone(self):
        core = OOOCore(self.config(64), 0)
        ctx = BranchContext(code_seed=99)
        core.instruction_time(100, ctx)
        before = core._mispredict_rate
        core.instruction_time(INSTRUCTIONS_PER_BRANCH - 1, ctx)
        assert core._mispredict_rate == before
        assert_stalls_follow_rate(core)

    def test_after_restore_state(self):
        warm = OOOCore(self.config(64), 0)
        ctx = BranchContext(code_seed=4, flip_noise_milli=300)
        for _ in range(200):
            warm.instruction_time(100, ctx)
        fresh = OOOCore(self.config(64), 0)
        assert fresh._mispredict_rate != warm._mispredict_rate
        fresh.restore_state(warm.snapshot())
        assert fresh._mispredict_rate == warm._mispredict_rate
        assert_stalls_follow_rate(fresh)
        assert fresh.load_stall(180, "memory") == warm.load_stall(180, "memory")
