"""The fast blocking in-order core model.

Paper 3.2.4: "a fast but simple blocking processor model that would
complete one billion instructions per second at 1 GHz (i.e. an IPC of 1)
if the L1 caches were perfect."  Every memory reference stalls the core
for its full latency; there is no speculation, so branch behaviour does
not enter the timing.
"""

from __future__ import annotations

from repro.proc.base import INSTRUCTIONS_PER_BRANCH, BranchContext, CoreModel


class SimpleCore(CoreModel):
    """Blocking core: IPC = 1 with perfect L1s, full-latency stalls."""

    name = "simple"

    def instruction_time(self, n_instructions: int, branch_ctx: BranchContext) -> int:
        """One cycle (== 1 ns at 1 GHz) per instruction."""
        self.instructions_retired += n_instructions
        # Branches still execute (the counter advances so the stream is
        # identical across core models); they just cost nothing extra.
        branch_ctx.counter += n_instructions // INSTRUCTIONS_PER_BRANCH
        return n_instructions

    def fetch_stall(self, latency_ns: int, source: str) -> int:
        """A blocking frontend waits out the whole fetch."""
        return latency_ns

    def load_stall(self, latency_ns: int, source: str) -> int:
        """A blocking core waits out the whole load."""
        return latency_ns

    def store_stall(self, latency_ns: int, source: str) -> int:
        """A blocking core waits out the whole store."""
        return latency_ns
