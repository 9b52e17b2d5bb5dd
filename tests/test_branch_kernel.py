"""Bit-identity tests for the OOO core's per-batch branch kernel.

Each test carries its own reference -- the documented ``hash_u64``
composition of the branch stream, a predict-then-update YAGS built from
the predictor's public pieces, and the closed-form MLP factor -- and
requires the product code to agree exactly, including the insertion
order of the predictor dicts (``Checkpoint.digest`` hashes dicts in
iteration order, so a reordered insert would move every warm key).

The branch-batch memo (``repro.proc.base.sampled_branches``) is held to
the same standard: a core served from the memo, from a memo another
code filled, or across a clear-on-full must be indistinguishable from a
memo-cold one.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ProcessorConfig, RunConfig, SystemConfig
from repro.core.runner import run_space
from repro.proc import base
from repro.proc.base import (
    KIND_COND,
    KIND_INDIRECT,
    KIND_RETURN,
    BranchContext,
    branch_memo_stats,
    branch_outcome,
    code_pc_base,
    resolve_branch_batch,
)
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
from repro.store import RunStore
from repro.system.checkpoint import Checkpoint
from repro.workloads.base import reset_stream_memo


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


# ----------------------------------------------------------------------
# The branch-batch memo
# ----------------------------------------------------------------------
OOO_CONFIG = SystemConfig(processor=ProcessorConfig(model="ooo", rob_entries=64))

code_statics = st.fixed_dictionaries(
    {
        "code_seed": code_seeds,
        # 4096 is the last static set whose slots pack into 16-bit words;
        # 4097 is the first that takes the wide packing.
        "static_branches": st.sampled_from([1, 7, 256, 1000, 4096, 4097]),
        "taken_bias_milli": st.sampled_from([0, 300, 700, 1000]),
        "flip_noise_milli": st.sampled_from([0, 40, 400, 1000]),
        "indirect_milli": st.sampled_from([0, 30, 500]),
        "return_milli": st.sampled_from([0, 60, 500]),
    }
)
#: instruction batches: no branch at all, fewer than the sample bound,
#: exactly the bound, and strides above one
batch_sizes = st.lists(
    st.one_of(st.integers(0, 40), st.integers(0, 2500)), min_size=1, max_size=40
)


def drive(statics: dict, start: int, batches: list[int]) -> tuple:
    """A fresh core and context run ``batches``; everything observable."""
    core = OOOCore(OOO_CONFIG, 0)
    ctx = BranchContext(counter=start, **statics)
    times = [core.instruction_time(n, ctx) for n in batches]
    checkpoint = Checkpoint(
        state={"core": core.snapshot(), "branch": ctx.snapshot()},
        workload_name="kernel",
        workload_seed=0,
        workload_scale=1.0,
        taken_at_transactions=0,
    )
    return times, core._mispredict_rate, ordered_snapshot(core), checkpoint.digest()


def sampled_batches(batches: list[int]) -> int:
    return sum(1 for n in batches if n >= INSTRUCTIONS_PER_BRANCH)


class TestResolverMatchesTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        statics=code_statics,
        first=counters,
        samples=st.integers(0, BRANCH_SAMPLES_PER_BATCH),
        stride=st.integers(1, 500),
    )
    def test_every_word_decodes_to_the_reference_outcome(
        self, statics, first, samples, stride
    ):
        ctx = BranchContext(counter=first, **statics)
        words = resolve_branch_batch(ctx, samples, stride)
        assert len(words) == samples
        kinds = {KIND_COND: "cond", KIND_INDIRECT: "indirect", KIND_RETURN: "return"}
        for position, word in enumerate(words):
            pc, taken, kind, target = reference_outcome(ctx, first + position * stride)
            assert code_pc_base(ctx.code_seed) | (word & ~0xF) == pc
            assert kinds[word & 3] == kind
            if kind == "cond":
                assert (word >> 2) & 3 == int(taken)
            else:
                assert pc + 64 + ((word >> 2) & 3) * 64 == target


class TestMemoIsInvisible:
    @settings(max_examples=60, deadline=None)
    @given(statics=code_statics, start=counters, batches=batch_sizes, other=code_statics)
    def test_cold_hot_and_foreign_filled_memos_agree(
        self, statics, start, batches, other
    ):
        reset_stream_memo()
        cold = drive(statics, start, batches)
        assert branch_memo_stats().hits == 0
        assert branch_memo_stats().entries == sampled_batches(batches)

        hot = drive(statics, start, batches)
        assert branch_memo_stats().hits == sampled_batches(batches)
        assert hot == cold

        # Different codes at the *same* counters fill the memo first; one
        # differs from this code in a single field, the nearest alias.
        reset_stream_memo()
        nearest = {**statics, "flip_noise_milli": statics["flip_noise_milli"] + 1}
        for foreign in (other, nearest):
            if foreign != statics:
                drive(foreign, start, batches)
        assert branch_memo_stats().hits == 0
        assert drive(statics, start, batches) == cold
        assert branch_memo_stats().hits == 0

    def test_threads_of_one_code_share_batches(self):
        reset_stream_memo()
        core = OOOCore(OOO_CONFIG, 0)
        threads = [BranchContext(code_seed=21) for _ in range(4)]
        for _ in range(50):
            for ctx in threads:
                core.instruction_time(100, ctx)
        stats = branch_memo_stats()
        assert (stats.misses, stats.hits, stats.entries) == (50, 150, 50)

    def test_same_samples_under_another_batch_size_hit(self):
        """The key is what is sampled -- (first, samples, stride) -- so
        batch sizes that sample the same counters share an entry."""
        reset_stream_memo()
        for n_branches in (6, 7, 11):
            OOOCore(OOO_CONFIG, 0)._sample_branches(
                BranchContext(code_seed=3, counter=640), n_branches
            )
        assert branch_memo_stats().misses == 1 and branch_memo_stats().hits == 2
        OOOCore(OOO_CONFIG, 0)._sample_branches(BranchContext(code_seed=3, counter=640), 12)
        assert branch_memo_stats().misses == 2

    def test_edited_context_fields_miss_instead_of_aliasing(self):
        reset_stream_memo()
        ctx = BranchContext(code_seed=5)
        OOOCore(OOO_CONFIG, 0).instruction_time(100, ctx)
        ctx.counter = 0
        ctx.static_branches = 16
        edited = OOOCore(OOO_CONFIG, 0).instruction_time(100, ctx)
        assert branch_memo_stats().hits == 0
        reset_stream_memo()
        fresh = BranchContext(code_seed=5, static_branches=16)
        assert OOOCore(OOO_CONFIG, 0).instruction_time(100, fresh) == edited


class TestMemoIsBounded:
    def test_entries_never_exceed_the_cap_and_a_clear_changes_nothing(self, monkeypatch):
        statics = {"code_seed": 0xC0DE, "indirect_milli": 200, "return_milli": 200}
        rng = random.Random(5)
        batches = [rng.choice((3, 9, 29, 30, 31, 100, 250)) for _ in range(400)]

        def lap(cap: int) -> tuple:
            """Three threads of one code share a core, so two of every
            three batches replay the first's, clear or no clear (a clear
            happens on the insert, which the new entry survives)."""
            core = OOOCore(OOO_CONFIG, 0)
            threads = [BranchContext(**statics) for _ in range(3)]
            times = []
            for n in batches:
                for ctx in threads:
                    times.append(core.instruction_time(n, ctx))
                    assert branch_memo_stats().entries <= cap
            return times, ordered_snapshot(core)

        reset_stream_memo()
        uncapped = lap(base.BRANCH_MEMO_CAP)
        stats = branch_memo_stats()
        assert (stats.clears, stats.hits) == (0, 2 * sampled_batches(batches))

        monkeypatch.setattr(base, "BRANCH_MEMO_CAP", 16)
        reset_stream_memo()
        assert lap(16) == uncapped
        assert stats.clears == (sampled_batches(batches) - 1) // 16
        assert stats.hits == 2 * sampled_batches(batches)

    def test_the_cap_covers_the_measured_working_set(self):
        """DESIGN section 16: the whole ledger grid in one process is under
        10k distinct batches; a cap below that would thrash every study."""
        assert base.BRANCH_MEMO_CAP >= 10_000

    def test_reset_stream_memo_is_the_one_reset(self):
        reset_stream_memo()
        drive({"code_seed": 9}, 0, [100] * 10)
        drive({"code_seed": 9}, 0, [100] * 10)
        stats = branch_memo_stats()
        assert (stats.hits, stats.misses, stats.entries) == (10, 10, 10)
        reset_stream_memo(reset_stats=False)
        assert (stats.hits, stats.misses, stats.entries) == (10, 10, 0)
        reset_stream_memo()
        assert (stats.hits, stats.misses, stats.entries, stats.clears) == (0, 0, 0, 0)


def test_run_space_twice_in_one_process_is_one_result(tmp_path):
    """The second sample is served by the memos the first one filled (and
    by nothing else: each has its own store) and must be the same sample
    under the same keys."""
    config = SystemConfig(n_cpus=2, processor=ProcessorConfig(model="ooo"))
    run = RunConfig(measured_transactions=10, warmup_transactions=15)
    reset_stream_memo()
    samples, stores = [], []
    for name in ("first", "second"):
        stores.append(RunStore(tmp_path / name, backend="dir"))
        samples.append(
            run_space(config, "oltp", run, 3, n_jobs=1, warm_start=True, store=stores[-1])
        )
        if name == "first":
            hits_after_first = branch_memo_stats().hits
    assert branch_memo_stats().hits > hits_after_first
    assert samples[0].to_dict() == samples[1].to_dict()
    assert sorted(stores[0].keys()) == sorted(stores[1].keys())
    assert len(stores[0].keys()) == 3
