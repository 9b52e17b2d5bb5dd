"""Core-model interface and the deterministic branch-outcome stream.

The machine's execution loop is model-agnostic: it asks the core how long
a batch of instructions takes (``instruction_time``), and how much of a
memory reference's latency the core actually stalls for (``load_stall`` /
``store_stall``).  The simple blocking core stalls for everything; the
out-of-order core hides latency behind its reorder buffer.

Branch outcomes are *counter-based deterministic*: the direction of the
n-th branch of a given static branch is a pure function of (workload seed,
branch PC, occurrence counter).  Each static branch has a fixed bias with
occasional hash-derived flips, so real predictors can learn it -- exactly
the property that makes predictor accuracy meaningful -- while the stream
remains reproducible and checkpointable (the state is one counter).

The stream is *defined* as five independent ``hash_u64`` folds per branch
(that composition is the oracle in ``tests/test_branch_kernel.py``); it is
*computed* from shared key prefixes: everything that depends only on the
code -- ``hash_u64(code_seed)``, the per-slot prefixes
``hash_u64(code_seed, slot)`` and each slot's fixed bias -- comes from
:func:`code_tables`, and the ``(code_seed, counter)`` round is shared by
the slot and kind draws.  :func:`branch_outcome` and
:func:`resolve_branch_batch` (what the out-of-order core samples) are
the two readers of those tables; :func:`sampled_branches` memoises the
latter, because every perturbed run from one checkpoint resolves the
same batches.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from repro.config import SystemConfig
from repro.sim.rng import _MASK64, hash_extend, hash_u64, splitmix64

#: average instructions per branch in the synthetic instruction stream;
#: every tier advances the branch counter by ``n // INSTRUCTIONS_PER_BRANCH``
#: per batch, which is what keeps the stream position-exact across tiers
INSTRUCTIONS_PER_BRANCH = 5
#: most branches of one instruction batch that are resolved and pushed
#: through the predictors (the out-of-order core's sample bound)
BRANCH_SAMPLES_PER_BATCH = 6


@dataclass
class BranchContext:
    """Per-thread branch-stream state, owned by the workload thread.

    ``code_seed`` identifies the thread's code (shared by threads of the
    same workload, so predictor tables warm across same-process threads);
    ``counter`` advances as branches execute; the *_milli fields are
    per-workload behaviour knobs in thousandths.
    """

    code_seed: int
    counter: int = 0
    static_branches: int = 256
    taken_bias_milli: int = 700
    flip_noise_milli: int = 40
    indirect_milli: int = 30
    return_milli: int = 60

    def snapshot(self) -> tuple:
        """Checkpointable state (everything is plain data)."""
        return (
            self.code_seed,
            self.counter,
            self.static_branches,
            self.taken_bias_milli,
            self.flip_noise_milli,
            self.indirect_milli,
            self.return_milli,
        )

    @classmethod
    def restore(cls, state: tuple) -> "BranchContext":
        """Rebuild from a :meth:`snapshot` value."""
        return cls(*state)


@lru_cache(maxsize=32)
def code_tables(
    code_seed: int, static_branches: int, taken_bias_milli: int
) -> tuple[int, int, tuple[int, ...], tuple[bool, ...]]:
    """The counter-independent part of a code's branch stream.

    Returns ``(seed_acc, pc_base, slot_accs, base_taken)``:
    ``hash_u64(code_seed)``, the PC bits contributed by the seed, and per
    static branch ``hash_u64(code_seed, slot)`` and its fixed bias
    ``hash_u64(code_seed, slot, 17) % 1000 < taken_bias_milli``.

    A pure function of its arguments, memoised per process (a machine
    runs one code; the bound only matters to tests that sweep seeds).
    It is deliberately *not* stored on :class:`BranchContext`: contexts
    are snapshotted, frozen and hashed into store keys field by field,
    and derived data must never reach any of those.
    """
    seed_acc = hash_u64(code_seed)
    slot_accs = tuple(hash_extend(seed_acc, slot) for slot in range(static_branches))
    base_taken = tuple(
        hash_extend(acc, 17) % 1000 < taken_bias_milli for acc in slot_accs
    )
    return seed_acc, code_pc_base(code_seed), slot_accs, base_taken


def code_pc_base(code_seed: int) -> int:
    """The PC bits a code's seed contributes to every branch address."""
    return (code_seed & 0xFFFF) << 20


def branch_outcome(ctx: BranchContext, counter: int) -> tuple[int, bool, str, int]:
    """Return (pc, taken, kind, target) for the ``counter``-th branch.

    Pure function of the context's static parameters and the counter, so
    the stream is identical across runs and machine configurations.
    """
    seed_acc, pc_base, slot_accs, base_taken = code_tables(
        ctx.code_seed, ctx.static_branches, ctx.taken_bias_milli
    )
    counter_acc = hash_extend(seed_acc, counter)
    slot = hash_extend(counter_acc, 11) % ctx.static_branches
    pc = pc_base | (slot << 4)
    kind_draw = hash_extend(counter_acc, 13) % 1000
    if kind_draw < ctx.indirect_milli:
        kind = "indirect"
    elif kind_draw < ctx.indirect_milli + ctx.return_milli:
        kind = "return"
    else:
        kind = "cond"
    # Fixed per-branch bias, flipped with small per-occurrence noise.
    slot_acc = slot_accs[slot]
    flip = hash_extend(slot_acc, counter, 19) % 1000 < ctx.flip_noise_milli
    taken = base_taken[slot] != flip
    # Indirect targets: a small per-branch target set selected by phase.
    target = pc + 64 + (hash_extend(slot_acc, counter // 32, 23) % 4) * 64
    return pc, taken, kind, target


# ----------------------------------------------------------------------
# What replays share: the pure half of a sampled branch batch
# ----------------------------------------------------------------------
#
# Which static branch a sampled branch is, its kind and its direction or
# target are a pure function of the code's six static parameters and the
# branch counter -- five SplitMix64 rounds per sample that every
# perturbed run from one checkpoint, and every thread of one code,
# repeats at the same counters.  A batch is therefore resolved once per
# process into one word per sample and replayed from the memo below;
# only the predictor updates (the stateful half, which stays in
# ``OOOCore._sample_branches``) run every time.  DESIGN.md section 16
# has the measured hit rates and the alternatives that were rejected.
#
# A sample's word is ``slot << 4 | selector << 2 | kind``: ``slot << 4``
# is exactly the slot's PC bits, ``selector`` the direction of a
# conditional (0/1) or the target selector of an indirect or return
# (0..3).  Entries are ``bytes`` (one non-GC object each, like the
# stream memo's), 2 bytes per sample while the slot fits 12 bits and 8
# beyond.  Like ``code_tables`` the memo is process-local derived data:
# never on a ``BranchContext``, in a snapshot, a key or a payload.

KIND_COND, KIND_INDIRECT, KIND_RETURN = 0, 1, 2

#: entries kept (~230 bytes each) before the memo is cleared and
#: refilled.  The whole ledger grid (6 configurations x (warm-up + 8
#: seeds)) in one process is 6.7k distinct batches; one cold
#: 4,000-transaction run on 4 CPUs makes 26k, and holding them all
#: (+6 MB) is no faster than clearing twice on the way (3.70 vs 3.73 s).
BRANCH_MEMO_CAP = 16384

_NARROW_SLOTS = 1 << 12
_BATCH_WORDS = {
    wide: tuple(
        struct.Struct(f"<{samples}{code}")
        for samples in range(BRANCH_SAMPLES_PER_BATCH + 1)
    )
    for wide, code in ((False, "H"), (True, "Q"))
}
_BATCH_MEMO: dict[tuple, bytes] = {}


@dataclass
class BranchMemoStats:
    """Process-wide counters for the branch-batch memo."""

    hits: int = 0
    misses: int = 0
    clears: int = 0

    @property
    def entries(self) -> int:
        """Batches held right now (never above ``BRANCH_MEMO_CAP``)."""
        return len(_BATCH_MEMO)


_BATCH_STATS = BranchMemoStats()


def branch_memo_stats() -> BranchMemoStats:
    """The live process-wide memo counters (mutated in place)."""
    return _BATCH_STATS


def _reset_branch_memo(reset_stats: bool) -> None:
    """Drop every memoised batch (the branch half of
    :func:`repro.workloads.base.reset_stream_memo`, the one public reset)."""
    _BATCH_MEMO.clear()
    if reset_stats:
        _BATCH_STATS.hits = _BATCH_STATS.misses = _BATCH_STATS.clears = 0


def resolve_branch_batch(ctx: BranchContext, samples: int, stride: int) -> tuple[int, ...]:
    """One word per sampled branch at ``ctx.counter``, ``+ stride``, ...

    :func:`branch_outcome`'s stream, one SplitMix64 round per key: the
    ``(code_seed, counter)`` round feeds both the slot and kind draws,
    and only the draw this branch kind consumes is made (direction for
    conditionals, target for indirects and returns).
    """
    static_branches = ctx.static_branches
    seed_acc, _, slot_accs, base_taken = code_tables(
        ctx.code_seed, static_branches, ctx.taken_bias_milli
    )
    flip_below = ctx.flip_noise_milli
    indirect_below = ctx.indirect_milli
    return_below = indirect_below + ctx.return_milli
    mix = splitmix64
    first = ctx.counter
    words = []
    for counter in range(first, first + samples * stride, stride):
        key = counter & _MASK64
        counter_acc = mix(seed_acc ^ key)
        slot = mix(counter_acc ^ 11) % static_branches
        kind_draw = mix(counter_acc ^ 13) % 1000
        if kind_draw >= return_below:
            flip = mix(mix(slot_accs[slot] ^ key) ^ 19) % 1000 < flip_below
            words.append(slot << 4 | (base_taken[slot] != flip) << 2 | KIND_COND)
        else:
            phase = (counter // 32) & _MASK64
            selector = mix(mix(slot_accs[slot] ^ phase) ^ 23) % 4
            kind = KIND_INDIRECT if kind_draw < indirect_below else KIND_RETURN
            words.append(slot << 4 | selector << 2 | kind)
    return tuple(words)


def sampled_branches(ctx: BranchContext, samples: int, stride: int) -> tuple[int, ...]:
    """:func:`resolve_branch_batch`, memoised per process.

    The key is what is sampled -- ``(counter, samples, stride)``, which
    several batch sizes share -- under every field of the context (its
    snapshot: the counter and all six statics), so two codes can never
    alias and a context whose fields were edited simply misses.
    """
    key = ctx.snapshot() + (samples, stride)
    packing = _BATCH_WORDS[ctx.static_branches > _NARROW_SLOTS][samples]
    packed = _BATCH_MEMO.get(key)
    if packed is not None:
        _BATCH_STATS.hits += 1
        return packing.unpack(packed)
    _BATCH_STATS.misses += 1
    words = resolve_branch_batch(ctx, samples, stride)
    if len(_BATCH_MEMO) >= BRANCH_MEMO_CAP:
        _BATCH_MEMO.clear()
        _BATCH_STATS.clears += 1
    _BATCH_MEMO[key] = packing.pack(*words)
    return words


class CoreModel:
    """Base class for processor timing models."""

    name = "base"

    def __init__(self, config: SystemConfig, node: int) -> None:
        self.config = config
        self.node = node
        self.instructions_retired = 0

    def instruction_time(self, n_instructions: int, branch_ctx: BranchContext) -> int:
        """Time (ns) to execute ``n_instructions`` with perfect caches."""
        raise NotImplementedError

    def functional_advance(
        self, n_instructions: int, branch_ctx: BranchContext
    ) -> None:
        """Architectural effect of a batch without its timing model.

        Used by the fast-forward engine (:mod:`repro.core.ffwd`): retires
        the instructions and advances the branch-stream counter exactly as
        both timing models do (one per ``INSTRUCTIONS_PER_BRANCH``), but
        evaluates no timing -- in particular the OOO model's predictor
        tables are not trained (they stay cold across a functional leg,
        the same trade :meth:`repro.system.machine.Machine.from_snapshot`
        makes for replayed L1s: transient state that re-warms within
        microseconds of timed execution).
        """
        self.instructions_retired += n_instructions
        branch_ctx.counter += n_instructions // INSTRUCTIONS_PER_BRANCH

    def fetch_stall(self, latency_ns: int, source: str) -> int:
        """Frontend stall for an instruction fetch with given latency."""
        raise NotImplementedError

    def load_stall(self, latency_ns: int, source: str) -> int:
        """Stall charged for a load that took ``latency_ns`` to service."""
        raise NotImplementedError

    def store_stall(self, latency_ns: int, source: str) -> int:
        """Stall charged for a store that took ``latency_ns`` to service."""
        raise NotImplementedError

    def snapshot(self) -> dict:
        """Checkpointable core state (predictors etc.)."""
        return {"instructions_retired": self.instructions_retired}

    def restore_state(self, state: dict) -> None:
        """Restore from a :meth:`snapshot` value."""
        self.instructions_retired = state["instructions_retired"]
