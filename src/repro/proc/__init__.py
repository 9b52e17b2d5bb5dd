"""Processor core timing models.

Two models, as in the paper (section 3.2.4):

- :class:`repro.proc.simple.SimpleCore` -- the fast blocking model: one
  instruction per cycle when the L1 caches are perfect, stalling for the
  full latency of every memory reference.
- :class:`repro.proc.ooo.OOOCore` -- the TFsim-like model: a four-wide
  out-of-order core with a reorder buffer, a YAGS direction predictor, a
  cascaded indirect predictor and a return-address stack.  The ROB
  overlaps miss latency (memory-level parallelism) and branch
  mispredictions flush the pipeline.

Both expose the same narrow interface consumed by the machine's execution
loop: ``instruction_time``, ``load_stall`` and ``store_stall``.
"""

from repro.proc.branch import (
    CascadedIndirectPredictor,
    ReturnAddressStack,
    YagsPredictor,
)
from repro.proc.base import CoreModel, branch_outcome
from repro.proc.ooo import OOOCore
from repro.proc.simple import SimpleCore


def make_core(config, node: int) -> CoreModel:
    """Build the configured core model for one node."""
    if config.processor.model == "simple":
        return SimpleCore(config, node)
    return OOOCore(config, node)


__all__ = [
    "CascadedIndirectPredictor",
    "ReturnAddressStack",
    "YagsPredictor",
    "CoreModel",
    "branch_outcome",
    "OOOCore",
    "SimpleCore",
    "make_core",
]
