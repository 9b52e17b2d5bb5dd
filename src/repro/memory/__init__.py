"""Memory-system simulator.

Models the paper's target memory system (section 3.2.1/3.2.3): split L1
instruction and data caches and a unified L2 per node, kept coherent by a
table-driven MOSI invalidation-based snooping protocol over a two-level
crossbar, backed by DRAM.

The public entry point is :class:`repro.memory.hierarchy.MemoryHierarchy`,
which owns every cache, the interconnect, the DRAM model and the
perturbation hook, and exposes a single ``access`` call to processor
models.
"""

from repro.memory.cache import CacheLine, SetAssociativeCache
from repro.memory.coherence import (
    CoherenceError,
    MOSIState,
    ProtocolEvent,
    TRANSITIONS,
    Transition,
)
from repro.memory.dram import MemoryController
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.interconnect import Crossbar

__all__ = [
    "CacheLine",
    "SetAssociativeCache",
    "CoherenceError",
    "MOSIState",
    "ProtocolEvent",
    "TRANSITIONS",
    "Transition",
    "MemoryController",
    "AccessResult",
    "MemoryHierarchy",
    "Crossbar",
]
