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
the slot and kind draws.  :func:`branch_outcome` and the out-of-order
core's sampling loop are the two readers of those tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.config import SystemConfig
from repro.sim.rng import hash_extend, hash_u64

#: average instructions per branch in the synthetic instruction stream;
#: every tier advances the branch counter by ``n // INSTRUCTIONS_PER_BRANCH``
#: per batch, which is what keeps the stream position-exact across tiers
INSTRUCTIONS_PER_BRANCH = 5


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
    return seed_acc, (code_seed & 0xFFFF) << 20, slot_accs, base_taken


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
