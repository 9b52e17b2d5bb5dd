"""The TFsim-like out-of-order core model.

Paper 3.2.4: TFsim models a four-wide out-of-order superscalar with a YAGS
branch predictor, a 64-entry cascaded indirect predictor, a 64-entry
return-address stack and a 64-entry reorder buffer (Experiment 2 varies
the ROB across 16/32/64 entries).

This model keeps the *structures* real -- every sampled branch flows
through genuine predictor tables, so warm-up and aliasing matter -- while
folding the dataflow core into a calibrated analytic timing model:

- **Width**: ``n`` instructions take ``ceil(n / width)`` cycles at best.
- **Branches**: one branch every ~5 instructions; each misprediction
  costs a pipeline refill (``pipeline_depth`` cycles).  Rather than
  simulating every branch, a bounded sample per instruction batch runs
  through the predictors and the observed rate is applied to the batch.
- **Memory-level parallelism**: a load miss does not block the core; the
  ROB keeps fetching, so independent misses overlap.  The effective
  overlap factor grows with the instruction window, which is the smaller
  of the ROB size and the distance to the next mispredicted branch
  (mispredictions squash the speculative window).  The paper's Experiment
  2 sensitivity -- runtime falls with ROB size, with diminishing
  returns -- emerges from this window model.
- **Stores** retire through a store buffer and only partially stall the
  core.
"""

from __future__ import annotations

import math

from repro.config import SystemConfig
from repro.isa import SRC_L1
from repro.proc.base import (
    BRANCH_SAMPLES_PER_BATCH,
    INSTRUCTIONS_PER_BRANCH,
    KIND_COND,
    KIND_INDIRECT,
    BranchContext,
    CoreModel,
    code_pc_base,
    sampled_branches,
)
from repro.proc.branch import (
    CascadedIndirectPredictor,
    ReturnAddressStack,
    YagsPredictor,
)

#: smoothing for the misprediction-rate estimate used by the MLP window
MISPREDICT_EWMA = 0.05
#: MLP grows with the log of the instruction window beyond the width
MLP_LOG_COEFF = 0.5
#: fraction of a store's latency that reaches the retirement stage
STORE_VISIBILITY = 0.25


class OOOCore(CoreModel):
    """Four-wide out-of-order core with ROB-limited latency overlap."""

    name = "ooo"

    def __init__(self, config: SystemConfig, node: int) -> None:
        super().__init__(config, node)
        proc = config.processor
        self.width = proc.width
        self.rob_entries = proc.rob_entries
        self.pipeline_depth = proc.pipeline_depth
        self.yags = YagsPredictor(choice_entries=proc.branch_predictor_entries)
        self.indirect = CascadedIndirectPredictor(proc.indirect_predictor_entries)
        self.ras = ReturnAddressStack(proc.return_address_stack_entries)
        # Misprediction-rate estimate, seeded pessimistically (cold tables).
        self._mispredict_rate = 0.08
        self._carry_cycles = 0.0
        self._mlp_factor = self._mlp()

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------
    def instruction_time(self, n_instructions: int, branch_ctx: BranchContext) -> int:
        """Issue-width time plus misprediction refills for a batch."""
        self.instructions_retired += n_instructions
        n_branches = n_instructions // INSTRUCTIONS_PER_BRANCH
        mispredicts = self._sample_branches(branch_ctx, n_branches)
        cycles = (
            n_instructions / self.width
            + mispredicts * self.pipeline_depth
            + self._carry_cycles
        )
        whole = int(cycles)
        self._carry_cycles = cycles - whole
        return whole

    def _sample_branches(self, branch_ctx: BranchContext, n_branches: int) -> float:
        """Run a bounded branch sample through the predictors.

        Returns the *expected* misprediction count for the whole batch,
        extrapolated from the sampled rate.  The context counter advances
        by the full branch count so the outcome stream is position-exact
        regardless of sample size.

        Which branches the sample holds is the pure half
        (:func:`repro.proc.base.sampled_branches`, shared by every replay
        of these counters); what the predictors make of them is the
        stateful half below.
        """
        if n_branches <= 0:
            return 0.0
        samples = min(n_branches, BRANCH_SAMPLES_PER_BATCH)
        # Sample evenly across the batch so phase changes are seen.
        stride = n_branches // samples
        first = branch_ctx.counter
        pc_base = code_pc_base(branch_ctx.code_seed)
        yags_update = self.yags.update
        sampled_mispredicts = 0
        for counter, word in zip(
            range(first, first + samples * stride, stride),
            sampled_branches(branch_ctx, samples, stride),
        ):
            pc = pc_base | (word & ~0xF)
            kind = word & 3
            if kind == KIND_COND:
                mispredicted = yags_update(pc, (word & 4) != 0)
            else:
                target = pc + 64 + ((word >> 2) & 3) * 64
                if kind == KIND_INDIRECT:
                    mispredicted = self.indirect.update(pc, target)
                else:
                    # Pair each sampled return with a preceding call so the
                    # stack tracks real depth; a hash decides whether the
                    # call site matches (models deep/unbalanced call chains).
                    if counter % 16 != 0:
                        self.ras.push(target)
                    mispredicted = self.ras.predict_return(target)
            if mispredicted:
                sampled_mispredicts += 1
        rate = sampled_mispredicts / samples
        self._mispredict_rate += MISPREDICT_EWMA * (rate - self._mispredict_rate)
        self._mlp_factor = self._mlp()
        branch_ctx.counter += n_branches
        return rate * n_branches

    # ------------------------------------------------------------------
    # Memory stalls
    # ------------------------------------------------------------------
    def _mlp(self) -> float:
        """Effective miss-overlap factor for the current window.

        A function of ``_mispredict_rate`` alone (the rest is
        configuration), so it is evaluated where the rate changes and the
        stall methods read the stored ``_mlp_factor``.
        """
        # Instructions until the next squash, on average.
        per_mispredict = INSTRUCTIONS_PER_BRANCH / max(self._mispredict_rate, 1e-3)
        window = min(self.rob_entries, per_mispredict)
        if window <= self.width:
            return 1.0
        return 1.0 + MLP_LOG_COEFF * math.log2(window / self.width)

    def fetch_stall(self, latency_ns: int, source: str) -> int:
        """Fetch-ahead buffers hide roughly half of an I-miss."""
        if source == SRC_L1:
            return 0
        return latency_ns // 2

    def load_stall(self, latency_ns: int, source: str) -> int:
        """Load misses overlap under the ROB; L1 hits are fully pipelined."""
        if source == SRC_L1:
            return 0
        return int(latency_ns / self._mlp_factor)

    def store_stall(self, latency_ns: int, source: str) -> int:
        """Stores drain through the store buffer, mostly off the path."""
        if source == SRC_L1:
            return 0
        return int(latency_ns * STORE_VISIBILITY / self._mlp_factor)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpointable core state including predictor tables."""
        return {
            "instructions_retired": self.instructions_retired,
            "mispredict_rate": self._mispredict_rate,
            "carry": self._carry_cycles,
            "yags": (
                dict(self.yags.choice._counters),
                dict(self.yags.taken_cache._counters),
                dict(self.yags.not_taken_cache._counters),
                dict(self.yags._taken_tags),
                dict(self.yags._not_taken_tags),
                self.yags.history,
                self.yags.predictions,
                self.yags.mispredictions,
            ),
            "indirect": (
                dict(self.indirect._first),
                dict(self.indirect._second),
                list(self.indirect._order),
                self.indirect.history,
                self.indirect.predictions,
                self.indirect.mispredictions,
            ),
            "ras": (list(self.ras._stack), self.ras.predictions, self.ras.mispredictions),
        }

    def restore_state(self, state: dict) -> None:
        """Restore from a :meth:`snapshot` value."""
        self.instructions_retired = state["instructions_retired"]
        self._mispredict_rate = state["mispredict_rate"]
        self._carry_cycles = state["carry"]
        self._mlp_factor = self._mlp()
        (
            self.yags.choice._counters,
            self.yags.taken_cache._counters,
            self.yags.not_taken_cache._counters,
            self.yags._taken_tags,
            self.yags._not_taken_tags,
            self.yags.history,
            self.yags.predictions,
            self.yags.mispredictions,
        ) = (
            dict(state["yags"][0]),
            dict(state["yags"][1]),
            dict(state["yags"][2]),
            dict(state["yags"][3]),
            dict(state["yags"][4]),
            state["yags"][5],
            state["yags"][6],
            state["yags"][7],
        )
        (
            self.indirect._first,
            self.indirect._second,
            self.indirect._order,
            self.indirect.history,
            self.indirect.predictions,
            self.indirect.mispredictions,
        ) = (
            dict(state["indirect"][0]),
            dict(state["indirect"][1]),
            list(state["indirect"][2]),
            state["indirect"][3],
            state["indirect"][4],
            state["indirect"][5],
        )
        self.ras._stack, self.ras.predictions, self.ras.mispredictions = (
            list(state["ras"][0]),
            state["ras"][1],
            state["ras"][2],
        )
