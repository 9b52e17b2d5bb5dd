"""Set-associative cache with true LRU replacement.

One :class:`SetAssociativeCache` instance models one physical cache array:
tag lookup, LRU victim selection, and per-line coherence state.  Timing and
coherence *protocol* live elsewhere (:mod:`repro.memory.hierarchy` and
:mod:`repro.memory.coherence`); this module is pure bookkeeping, which
keeps it easy to test exhaustively.

Sets are stored as a preallocated list (indexed by set number) of ordered
dicts mapping block number to the line's *value*, one int
``state_code << 1 | dirty`` (:data:`repro.memory.coherence.STATE_CODES`);
dict order is recency order with the most recently used line last.  The
list form keeps the hot lookup path to one index plus one dict probe, with
no exists-yet branch, and because a line is a value rather than an object
a whole array copies with ``dict.copy()`` per set (:meth:`copy_from`) --
which is what makes :meth:`repro.system.machine.Machine.clone` cheap.
The hot paths in :mod:`repro.memory.hierarchy` and :mod:`repro.core.ffwd`
read and write the ints directly; everything else sees a
:class:`CacheLine` view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.config import CacheConfig
from repro.memory.coherence import STATE_CODES, STATE_NAMES


class CacheLine(NamedTuple):
    """A read-only view of one resident block, built on demand at the
    boundary (``peek``/``lookup``/victims, tests, invariant checks); the
    cache itself stores ``state_code << 1 | dirty`` ints."""

    block: int
    state: str
    dirty: bool


def _view(block: int, value: int | None) -> CacheLine | None:
    if value is None:
        return None
    return CacheLine(block, STATE_NAMES[value >> 1], bool(value & 1))


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses


class SetAssociativeCache:
    """A set-associative cache array with LRU replacement."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self.associativity = config.associativity
        self.stats = CacheStats()
        # set index -> {block: code << 1 | dirty}, dict order == LRU order
        # (MRU last)
        self._sets: list[dict[int, int]] = [{} for _ in range(self.n_sets)]

    def set_index(self, block: int) -> int:
        """Return the set a block maps to."""
        return block % self.n_sets

    def lookup(self, block: int, *, update_lru: bool = True, count: bool = True) -> CacheLine | None:
        """Find a resident line for ``block``.

        Updates the LRU order and the hit/miss counters unless suppressed
        (coherence snoops probe with ``count=False`` so remote traffic does
        not pollute local demand statistics).
        """
        lines = self._sets[block % self.n_sets]
        value = lines.get(block)
        if value is None:
            if count:
                self.stats.misses += 1
            return None
        if update_lru:
            # Re-insert to move the block to MRU position.
            del lines[block]
            lines[block] = value
        if count:
            self.stats.hits += 1
        return _view(block, value)

    def peek(self, block: int) -> CacheLine | None:
        """Probe for a line without touching LRU order or counters."""
        return _view(block, self._sets[block % self.n_sets].get(block))

    def insert(self, block: int, state: str, dirty: bool = False) -> CacheLine | None:
        """Install a block, returning the evicted victim line if any.

        The caller is responsible for having handled any previous copy of
        the block (inserting a block that is already resident is a protocol
        bug and raises).
        """
        lines = self._sets[self.set_index(block)]
        if block in lines:
            raise ValueError(f"{self.name}: block {block} already resident")
        victim = None
        if len(lines) >= self.associativity:
            # LRU victim is the first (oldest) entry.
            victim_block = next(iter(lines))
            victim = _view(victim_block, lines.pop(victim_block))
            self.stats.evictions += 1
        lines[block] = STATE_CODES[state] << 1 | bool(dirty)
        return victim

    def set_state(self, block: int, state: str) -> None:
        """Overwrite a resident line's state in place (LRU position and
        dirty bit kept).  Nothing in the simulator calls this: it is how a
        test or a debugger corrupts a line on purpose."""
        lines = self._sets[block % self.n_sets]
        lines[block] = STATE_CODES[state] << 1 | lines[block] & 1

    def evict(self, block: int) -> CacheLine | None:
        """Remove a block (coherence invalidation or recall), if resident."""
        return _view(block, self._sets[block % self.n_sets].pop(block, None))

    def resident_blocks(self) -> list[int]:
        """Return every resident block number (test/diagnostic helper)."""
        blocks: list[int] = []
        for lines in self._sets:
            blocks.extend(lines.keys())
        return blocks

    def occupancy(self) -> int:
        """Return the number of resident lines."""
        return sum(len(lines) for lines in self._sets)

    def clear(self) -> None:
        """Drop all contents and reset statistics (used on restore)."""
        self._sets = [{} for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def copy_from(self, other: "SetAssociativeCache") -> None:
        """Take the contents, LRU order and counters of ``other`` (an array
        of the same geometry) by value: nothing stays shared, since lines
        are ints."""
        self._sets = [lines.copy() for lines in other._sets]
        self.stats = replace(other.stats)

    def snapshot(self) -> dict:
        """Return a checkpointable copy of the array contents."""
        return {
            "sets": {
                index: [
                    (block, STATE_NAMES[value >> 1], bool(value & 1))
                    for block, value in lines.items()
                ]
                for index, lines in enumerate(self._sets)
                if lines
            },
            "stats": (self.stats.hits, self.stats.misses, self.stats.evictions),
        }

    @classmethod
    def restore(cls, config: CacheConfig, state: dict, name: str = "cache") -> "SetAssociativeCache":
        """Rebuild a cache array from a :meth:`snapshot` value."""
        cache = cls(config, name=name)
        for index, lines in state["sets"].items():
            cache._sets[int(index)] = {
                block: STATE_CODES[line_state] << 1 | bool(dirty)
                for block, line_state, dirty in lines
            }
        hits, misses, evictions = state["stats"]
        cache.stats = CacheStats(hits=hits, misses=misses, evictions=evictions)
        return cache
