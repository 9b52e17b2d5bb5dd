"""The assembled memory hierarchy.

:class:`MemoryHierarchy` owns, for each of the 16 nodes, split L1
instruction/data caches and a unified L2, plus the shared crossbar and the
distributed memory controllers.  Processor models call :meth:`access` for
every memory reference and receive the reference's latency in nanoseconds.

Coherence is the table-driven MOSI protocol from
:mod:`repro.memory.coherence`.  Each L2 miss is resolved atomically in
time: the requesting controller is stepped through its transient states
(IS_D / IM_D / SM_D / OM_D) while every remote copy observes the
corresponding OTHER_* event, exactly as the protocol table dictates.  A
directory (owner + sharer bitmask derived from L2 states) accelerates the
snoop lookup; semantics are identical to broadcasting to all nodes.

All mutable state is plain values: a resident line is the int
``state_code << 1 | dirty`` in its set dict (:mod:`repro.memory.cache`)
and a directory entry is an int -- the owner node, or the bitmask of
sharer nodes -- that is *replaced*, never mutated.  Copying a hierarchy
(:meth:`MemoryHierarchy.copy_state_from`) is therefore ``dict.copy()``
per table, with nothing left shared between the copies.

Two timing couplings make the hierarchy sensitive to small perturbations,
which is the paper's central mechanism:

- **per-block busy windows**: two racing requests to one block serialize,
  so whichever arrives second -- a timing-dependent outcome -- pays extra
  latency (this is how lock hand-offs become order-dependent); and
- **interconnect / DRAM occupancy**: bursts of misses queue.

Finally, the **perturbation hook** (paper section 3.3) adds a uniformly
distributed pseudo-random 0..max_ns to every L2 miss.  With a fresh seed
per run this creates the space of possible executions the methodology
samples from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.isa import (
    SRC_CACHE,
    SRC_L1,
    SRC_L2,
    SRC_MEMORY,
    SRC_UPGRADE,
)
from repro.memory.cache import SetAssociativeCache
from repro.memory.coherence import (
    ACT_DEALLOCATE,
    ACT_HIT,
    ACT_ISSUE_PUTM,
    ACT_WRITEBACK,
    EV_LOAD,
    EV_OTHER_GETM,
    EV_OTHER_GETS,
    EV_OWN_ACK,
    EV_REPLACEMENT,
    EV_STORE,
    EV_WB_ACK,
    N_EVENTS,
    PROTOCOL_HAS_E,
    PROTOCOL_OWNER_MASKS,
    PROTOCOL_OWNER_STATES,
    READABLE_MASK,
    ST_E,
    ST_M,
    ST_RO,
    ST_RW,
    ST_S,
    STATE_NAMES,
    event_column,
    illegal_transition,
    int_table_for,
)
from repro.memory.dram import MemoryController
from repro.memory.interconnect import Crossbar
from repro.sim.rng import RandomStream

#: L1 line permission tags (the L1s are not coherence points; they mirror
#: a subset of the local L2 state under inclusion).  The string forms are
#: the boundary/API constants; lines store the integer codes.
L1_READ_ONLY = "RO"
L1_READ_WRITE = "RW"
L1_RO_CODE = ST_RO
L1_RW_CODE = ST_RW

#: hot-path constants: a line is ``state_code << 1 | dirty``
_M = ST_M
_S = ST_S
_E = ST_E
_RO = ST_RO
_RW = ST_RW


def sharer_nodes(mask: int) -> list[int]:
    """The nodes of a directory sharer bitmask, ascending."""
    nodes = []
    node = 0
    while mask:
        if mask & 1:
            nodes.append(node)
        mask >>= 1
        node += 1
    return nodes


#: access outcomes are plain ``(latency_ns, source)`` tuples on the hot
#: path; this alias documents intent (``source`` is a repro.isa SRC_* code)
AccessResult = tuple


@dataclass(slots=True)
class HierarchyStats:
    """Aggregate counters across the whole hierarchy."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    cache_to_cache: int = 0
    memory_fetches: int = 0
    upgrades: int = 0
    writebacks: int = 0
    perturbation_total_ns: int = 0
    block_race_stalls: int = 0

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L2 access."""
        l2_accesses = self.l2_hits + self.l2_misses
        if l2_accesses == 0:
            return 0.0
        return self.l2_misses / l2_accesses


class MemoryHierarchy:
    """Caches, coherence, interconnect and DRAM for the whole machine."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        n = config.n_cpus
        self.l1i = [SetAssociativeCache(config.l1i, name=f"l1i{i}") for i in range(n)]
        self.l1d = [SetAssociativeCache(config.l1d, name=f"l1d{i}") for i in range(n)]
        self.l2 = [SetAssociativeCache(config.l2, name=f"l2_{i}") for i in range(n)]
        self.crossbar = Crossbar(config.memory, n)
        self.dram = MemoryController(config.memory, n)
        self.stats = HierarchyStats()
        # Table-driven protocol selection (paper 3.2.3: the memory
        # simulator supports a range of protocols as transition tables).
        self.protocol = config.coherence_protocol
        self._owner_states = PROTOCOL_OWNER_STATES[self.protocol]
        self._has_exclusive = PROTOCOL_HAS_E[self.protocol]
        # Integer-coded protocol views.  Lines store their state as an
        # int code, so every transition lookup on the miss legs is a flat
        # list index (``state_code * N_EVENTS + event_code``) yielding
        # ``(action_flags, next_code)``; action checks are one bit-AND.
        # ``_demand`` is (load_column, store_column): state code ->
        # (is_hit, next_code), the two per-access-hottest columns
        # extracted for direct indexing.
        self._int_table = int_table_for(self.protocol)
        self._demand = tuple(
            [
                entry if entry is None else (entry[0] & ACT_HIT, entry[1])
                for entry in event_column(self._int_table, event)
            ]
            for event in (EV_LOAD, EV_STORE)
        )
        self._owner_mask = PROTOCOL_OWNER_MASKS[self.protocol]
        # Directory derived from L2 states: block -> owner node (M or O
        # copy), block -> bitmask of nodes with any readable copy.
        self._owner: dict[int, int] = {}
        self._sharers: dict[int, int] = {}
        # Per-block transaction busy windows (timing-dependent races).
        self._block_busy: dict[int, int] = {}
        # Perturbation stream; reseeded per run by the runner.
        self._perturb = RandomStream(seed=0)
        self._perturb_max = config.perturbation.max_ns
        # Hot-path precomputation: block geometry and the constant
        # L1-hit results (the fast path returns these cached tuples
        # instead of allocating a result object per access).
        self._block_bytes = config.l1d.block_bytes
        self._cache_provide_ns = config.memory.cache_provide_ns
        self._fetch_cap_ns = config.memory.memory_fetch_ns
        self._l1d_hit = (config.l1d.hit_latency_ns, SRC_L1)
        self._l1i_hit = (config.l1i.hit_latency_ns, SRC_L1)
        self._miss_base_d = config.l1d.hit_latency_ns + config.l2.hit_latency_ns
        self._miss_base_i = config.l1i.hit_latency_ns + config.l2.hit_latency_ns
        # Probe-bus hook: fired per global (L2-miss) transaction when a
        # cache probe is attached; None costs one check off the fast path.
        self._probe_cache = None

    # ------------------------------------------------------------------
    # Run setup
    # ------------------------------------------------------------------
    def seed_perturbation(self, seed: int) -> None:
        """Install the per-run perturbation stream (paper 3.3)."""
        self._perturb = RandomStream(seed=seed)

    def set_cache_probe(self, callback) -> None:
        """Install (or clear, with None) the cache-event probe hook.

        The callback fires once per global coherence transaction (L2
        miss/upgrade) as ``callback(now, node, block, source, latency_ns,
        is_write)``.  L1/L2 hits are not probed: they are the fast path,
        and the interesting coherence behaviour is in the misses.
        """
        self._probe_cache = callback

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------
    def access(
        self,
        node: int,
        address: int,
        is_write: bool,
        now: int,
        is_instruction: bool = False,
        timed: bool = True,
    ) -> tuple:
        """Perform one memory reference.

        Returns ``(latency_ns, source)`` where ``source`` is a
        :mod:`repro.isa` ``SRC_*`` code.  The L1-hit fast path returns a
        cached constant tuple: no allocation per access.
        """
        stats = self.stats
        stats.accesses += 1
        block = address // self._block_bytes
        l1 = self.l1i[node] if is_instruction else self.l1d[node]

        # Inlined l1.lookup(block): this runs once per simulated memory
        # reference, and the call (plus its kwarg defaults) is measurable.
        # Semantics are identical -- hit/miss counters and the MRU move
        # fire exactly as SetAssociativeCache.lookup would.
        lines = l1._sets[block % l1.n_sets]
        line = lines.get(block)
        if line is None:
            l1.stats.misses += 1
        else:
            del lines[block]
            l1.stats.hits += 1
            if not is_write or line >> 1 == _RW:
                lines[block] = line | 1 if is_write else line
                stats.l1_hits += 1
                return self._l1i_hit if is_instruction else self._l1d_hit
            lines[block] = line

        # L1 miss (or write to a read-only L1 line): go to the local L2.
        # The L2 lookup and demand transition are inlined here (one call
        # per L1 miss is measurable); counters and LRU behave exactly as
        # SetAssociativeCache.lookup would.  ``timed`` is False only via
        # :meth:`access_functional`; from here down it gates what produces
        # or consumes *time* and nothing else.  Untimed, the base latency
        # is 0 so the probe sees the caller's ``now`` (and the returned
        # latency means nothing).
        if timed:
            latency = self._miss_base_i if is_instruction else self._miss_base_d
        else:
            latency = 0
        l2 = self.l2[node]
        l2_lines = l2._sets[block % l2.n_sets]
        l2_line = l2_lines.get(block)
        if l2_line is not None:
            del l2_lines[block]
            l2.stats.hits += 1
            entry = self._demand[is_write][l2_line >> 1]
            if entry is None:
                l2_lines[block] = l2_line
                raise illegal_transition(
                    l2_line >> 1, EV_STORE if is_write else EV_LOAD
                )
            hit, next_code = entry
            if hit:
                l2_lines[block] = next_code << 1 | (1 if is_write else l2_line & 1)
                self.stats.l2_hits += 1
                source = SRC_L2
                writable = next_code == _M
            else:
                # Upgrade path: the line stays resident in a transient
                # state while the GetM is outstanding; OWN_ACK lands the
                # requestor's copy in M, so the L1 fill is writable.
                l2_lines[block] = next_code << 1 | l2_line & 1
                miss_latency, source = self._global_transaction(
                    node, block, is_write, now + latency, next_code, timed
                )
                latency += miss_latency
                writable = True
        else:
            # Full miss from I (the table maps it to IS_D/IM_D + a
            # request).  A GetM fills the L2 in M (writable); a GetS
            # fills S or E, neither of which grants L1 write permission
            # (an E copy upgrades through the L2, not in the L1).
            l2.stats.misses += 1
            miss_latency, source = self._global_transaction(
                node, block, is_write, now + latency, None, timed
            )
            latency += miss_latency
            writable = is_write

        # Fill the L1 under inclusion (l1.fill inlined; runs once per L1
        # miss).  A write-permission change replaces any stale read-only
        # copy -- its key, still at MRU from the lookup above, keeps its
        # place when the value is overwritten.  L1 write permission
        # requires the L2 copy to be M specifically.  A dirty L1 victim
        # folds into the L2 copy (inclusion guarantees the L2 holds the
        # block in M, which is already dirty), so the victim is simply
        # dropped.  The global transaction never touches this node's L1
        # copy of ``block``, so ``lines``/``line`` remain valid.
        if line is None and len(lines) >= l1.associativity:
            del lines[next(iter(lines))]
            l1.stats.evictions += 1
        lines[block] = (_RW if writable else _RO) << 1 | (1 if is_write else 0)
        return (latency, source)

    def access_functional(
        self,
        node: int,
        address: int,
        is_write: bool,
        now: int,
        is_instruction: bool = False,
    ) -> None:
        """Perform one memory reference's *state* effects without timing.

        :meth:`access` with ``timed=False``: every cache, LRU, directory
        and counter transition of the timed reference, but the block-race
        busy windows, the perturbation stream and the crossbar/DRAM
        occupancy models are left untouched.  ``now`` is the caller's
        functional clock, used only to timestamp probe events (which
        report latency 0).  Returns nothing (a functional reference has
        no latency).
        """
        self.access(node, address, is_write, now, is_instruction, False)

    def _global_transaction(
        self,
        node: int,
        block: int,
        is_write: bool,
        now: int,
        upgrading,
        timed: bool,
    ) -> tuple:
        """Resolve a GetS/GetM on the interconnect.

        ``upgrading`` is the transient state code (SM_D/OM_D) of the
        requestor's resident L2 line when the request is an upgrade, else
        None.  Untimed, the protocol and
        directory transitions are the same and the latency is 0: no busy
        window, no perturbation draw, no crossbar/DRAM occupancy.
        """
        self.stats.l2_misses += 1
        latency = 0

        if timed:
            # Serialize racing transactions to the same block.  The stall
            # is capped at one transaction length: CPUs are interleaved at
            # slice granularity, so an uncapped wait could charge
            # cross-slice timestamp skew as contention.
            busy_until = self._block_busy.get(block, 0)
            if busy_until > now:
                stall = min(busy_until - now, self._fetch_cap_ns)
                latency += stall
                now += stall
                self.stats.block_race_stalls += 1

            # Paper 3.3: uniformly distributed pseudo-random 0..max on
            # every L2 miss.  This is the injected variability.
            # Bit-identical to ``self._perturb.randint(0, self._perturb_max)``.
            if self._perturb_max > 0:
                jitter = self._perturb.next_u64() % (self._perturb_max + 1)
                latency += jitter
                self.stats.perturbation_total_ns += jitter

        owner = self._owner.get(block)
        sharers = self._sharers.get(block, 0)

        if is_write:
            resolved, source = self._resolve_getm(
                node, block, now + latency, owner, sharers, upgrading, timed
            )
        else:
            resolved, source = self._resolve_gets(
                node, block, now + latency, owner, sharers, timed
            )
        latency += resolved

        if timed:
            self._block_busy[block] = now + latency
        if self._probe_cache is not None:
            self._probe_cache(now, node, block, source, latency, is_write)
        return (latency, source)

    def _resolve_gets(
        self,
        node: int,
        block: int,
        now: int,
        owner: int | None,
        sharers: int,
        timed: bool,
    ) -> tuple:
        """Resolve a load miss: data from the owner cache or from memory."""
        latency = 0
        if owner is not None and owner != node:
            # Owner observes OTHER_GETS: M -> O (MOSI/MOESI) or M -> S
            # with writeback (MESI); E -> S.  It supplies the data.
            self._apply_remote(owner, block, EV_OTHER_GETS, timed)
            if timed:
                latency = self.crossbar.round_trip(now) + self._cache_provide_ns
            source = SRC_CACHE
            self.stats.cache_to_cache += 1
            # The supplier may have dropped out of the owner states
            # (MESI M->S): ownership reverts to memory.
            cache = self.l2[owner]
            supplier = cache._sets[block % cache.n_sets].get(block)
            if supplier is None or not (1 << (supplier >> 1)) & self._owner_mask:
                self._owner.pop(block, None)
        else:
            if timed:
                latency = self.crossbar.round_trip(now) + self.dram.read(block, now)
            source = SRC_MEMORY
            self.stats.memory_fetches += 1
        # Requestor: IS_D + OWN_DATA -> S; with no other copy and an
        # E-capable protocol, IS_D + OWN_DATA_EXCL -> E.
        exclusive = (
            self._has_exclusive and owner is None and not sharers & ~(1 << node)
        )
        self._fill(node, block, _E if exclusive else _S, False, timed)
        self._sharers[block] = self._sharers.get(block, 0) | 1 << node
        if exclusive:
            self._owner[block] = node
        return (latency, source)

    def _resolve_getm(
        self,
        node: int,
        block: int,
        now: int,
        owner: int | None,
        sharers: int,
        upgrading: int | None,
        timed: bool,
    ) -> tuple:
        """Resolve a store miss/upgrade: invalidate all other copies."""
        latency = 0
        # Remote copies observe OTHER_GETM, in node order.  ``sharers`` is
        # a value, so the directory updates those transitions make cannot
        # disturb the walk.
        remote = sharers & ~(1 << node)
        if remote:
            if not remote & (remote - 1):
                # Dominant case: one remote holder.
                self._apply_remote(remote.bit_length() - 1, block, EV_OTHER_GETM, timed)
            else:
                for sharer in sharer_nodes(remote):
                    self._apply_remote(sharer, block, EV_OTHER_GETM, timed)
        data_from_cache = owner is not None and owner != node

        if upgrading is not None:
            # SM_D/OM_D + OWN_ACK -> M.  Invalidation round trip only; the
            # requestor already holds the data.
            entry = self._int_table[upgrading * N_EVENTS + EV_OWN_ACK]
            if entry is None:
                raise illegal_transition(upgrading, EV_OWN_ACK)
            cache = self.l2[node]
            cache._sets[block % cache.n_sets][block] = entry[1] << 1 | 1
            if timed:
                latency = self.crossbar.round_trip(now)
            source = SRC_UPGRADE
            self.stats.upgrades += 1
        elif data_from_cache:
            if timed:
                latency = self.crossbar.round_trip(now) + self._cache_provide_ns
            source = SRC_CACHE
            self.stats.cache_to_cache += 1
            self._fill(node, block, _M, True, timed)
        else:
            if timed:
                latency = self.crossbar.round_trip(now) + self.dram.read(block, now)
            source = SRC_MEMORY
            self.stats.memory_fetches += 1
            self._fill(node, block, _M, True, timed)

        # Directory: the requestor is now the sole owner (every remote
        # copy was just invalidated above: remote stable states all
        # deallocate on OTHER_GETM).
        self._owner[block] = node
        self._sharers[block] = 1 << node
        return (latency, source)

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    def _apply_remote(self, node: int, block: int, event_code: int, timed: bool) -> None:
        """Apply a remote-observed event at one node's L2 (and L1s)."""
        l2 = self.l2[node]
        lines = l2._sets[block % l2.n_sets]
        line = lines.get(block)
        if line is None:
            return
        entry = self._int_table[(line >> 1) * N_EVENTS + event_code]
        if entry is None:
            raise illegal_transition(line >> 1, event_code)
        flags, next_code = entry
        dirty = line & 1
        if flags & ACT_WRITEBACK:
            # MESI: a read-shared M copy flushes to memory (no O state).
            # Counted either way; only a timed one occupies the DRAM model.
            if timed:
                self.dram.writeback(block, self._block_busy.get(block, 0))
            self.stats.writebacks += 1
            dirty = 0
        if flags & ACT_DEALLOCATE:
            del lines[block]
            self._drop_l1(node, block)
            self._directory_remove(node, block)
        else:
            lines[block] = next_code << 1 | dirty
            # Losing write permission demotes any RW L1 copy.
            self._demote_l1(node, block)

    def _fill(self, node: int, block: int, code: int, dirty: bool, timed: bool) -> None:
        """Install an arriving block in a node's L2, handling the victim.

        Fused peek + insert over the set dict (one pass; runs once per
        L2 fill).  An existing line is overwritten in place *without* an
        LRU move -- IM_D after a racing OTHER_GETM stripped us while
        upgrading leaves the line resident -- exactly as the
        peek-then-insert form behaved.
        """
        cache = self.l2[node]
        lines = cache._sets[block % cache.n_sets]
        if block in lines or len(lines) < cache.associativity:
            lines[block] = code << 1 | dirty
            return
        # LRU victim is the first (oldest) entry.
        victim_block = next(iter(lines))
        victim = lines.pop(victim_block)
        cache.stats.evictions += 1
        lines[block] = code << 1 | dirty
        self._handle_l2_eviction(node, victim_block, victim >> 1, timed)

    def _handle_l2_eviction(
        self, node: int, victim_block: int, victim_code: int, timed: bool
    ) -> None:
        """Run the replacement leg of the protocol for an evicted line."""
        entry = self._int_table[victim_code * N_EVENTS + EV_REPLACEMENT]
        if entry is None:
            raise illegal_transition(victim_code, EV_REPLACEMENT)
        flags, next_code = entry
        if flags & ACT_ISSUE_PUTM:
            # MI_A/OI_A + WB_ACK -> writeback to the home controller, off
            # the requestor's critical path.
            if self._int_table[next_code * N_EVENTS + EV_WB_ACK] is None:
                raise illegal_transition(next_code, EV_WB_ACK)
            if timed:
                self.dram.writeback(victim_block, self._block_busy.get(victim_block, 0))
            self.stats.writebacks += 1
        self._drop_l1(node, victim_block)
        self._directory_remove(node, victim_block)

    def _directory_remove(self, node: int, block: int) -> None:
        """Remove a node's copy from the directory."""
        sharers = self._sharers.get(block)
        if sharers is not None:
            sharers &= ~(1 << node)
            if sharers:
                self._sharers[block] = sharers
            else:
                del self._sharers[block]
        if self._owner.get(block) == node:
            self._owner.pop(block, None)

    def _drop_l1(self, node: int, block: int) -> None:
        """Invalidate a block in both L1s of a node (inclusion)."""
        cache = self.l1i[node]
        cache._sets[block % cache.n_sets].pop(block, None)
        cache = self.l1d[node]
        cache._sets[block % cache.n_sets].pop(block, None)

    def _demote_l1(self, node: int, block: int) -> None:
        """Strip write permission from an L1 copy after an L2 demotion."""
        cache = self.l1d[node]
        lines = cache._sets[block % cache.n_sets]
        line = lines.get(block)
        if line is not None:
            lines[block] = _RO << 1 | line & 1

    # ------------------------------------------------------------------
    # Directory maintenance
    # ------------------------------------------------------------------
    def rebuild_directory(self) -> None:
        """Derive the owner/sharer directory from current L2 contents.

        Used after cache contents are replayed into a new geometry or
        protocol (checkpoint restore across configurations): every
        resident L2 copy becomes a sharer, and lines in this protocol's
        owner states claim ownership.  If a replay surfaced two stale
        owners for one block (set-mapping changes can do this), the
        later node's copy is demoted to Shared so the single-owner
        invariant holds.
        """
        owner: dict[int, int] = {}
        sharers: dict[int, int] = {}
        owner_mask = self._owner_mask
        for node in range(self.config.n_cpus):
            for lines in self.l2[node]._sets:
                for block, line in lines.items():
                    sharers[block] = sharers.get(block, 0) | 1 << node
                    if (1 << (line >> 1)) & owner_mask:
                        if block in owner:
                            lines[block] = _S << 1 | line & 1
                        else:
                            owner[block] = node
        self._owner = owner
        self._sharers = sharers

    # ------------------------------------------------------------------
    # Occupancy digests (differential checks, tests)
    # ------------------------------------------------------------------
    def occupancy(self, include_order: bool = False) -> dict:
        """Timing-free content digest of cache and directory state.

        Returns, per node, the sorted set of resident ``(block, state,
        dirty)`` triples for each cache level, plus the directory's
        owner/sharer maps.  Deliberately excludes everything timing owns:
        busy windows, crossbar/DRAM occupancy, the perturbation cursor,
        and counters.  With ``include_order=True`` also returns the
        per-set LRU orderings (oldest first) under ``"lru"`` -- compared
        report-only by the functional-vs-timed differential, since LRU
        order legitimately diverges once interleaving differs.
        """

        def contents(cache) -> list:
            return sorted(
                (block, STATE_NAMES[line >> 1], bool(line & 1))
                for lines in cache._sets
                for block, line in lines.items()
            )

        def order(cache) -> list:
            return [list(lines) for lines in cache._sets]

        doc = {
            "l1i": [contents(c) for c in self.l1i],
            "l1d": [contents(c) for c in self.l1d],
            "l2": [contents(c) for c in self.l2],
            "owner": dict(sorted(self._owner.items())),
            "sharers": {b: sharer_nodes(s) for b, s in sorted(self._sharers.items())},
        }
        if include_order:
            doc["lru"] = {
                "l1i": [order(c) for c in self.l1i],
                "l1d": [order(c) for c in self.l1d],
                "l2": [order(c) for c in self.l2],
            }
        return doc

    # ------------------------------------------------------------------
    # Invariant checking (tests + debugging)
    # ------------------------------------------------------------------
    def check_coherence_invariants(self) -> list[str]:
        """Verify the single-writer / directory-consistency invariants.

        Returns a list of violations (empty when coherent).  O(total
        resident lines); intended for tests, not the hot path.
        """
        problems: list[str] = []
        by_block: dict[int, list[tuple[int, int]]] = {}
        for node in range(self.config.n_cpus):
            for lines in self.l2[node]._sets:
                for block, line in lines.items():
                    by_block.setdefault(block, []).append((node, line >> 1))
        owner_mask = self._owner_mask
        for block, copies in by_block.items():
            m_holders = [n for n, c in copies if c == ST_M or c == ST_E]
            owners = [n for n, c in copies if (1 << c) & owner_mask]
            readable = {n for n, c in copies if (1 << c) & READABLE_MASK}
            if len(m_holders) > 1:
                problems.append(f"block {block}: multiple M copies {m_holders}")
            if m_holders and len(readable) > 1:
                problems.append(f"block {block}: M copy coexists with sharers")
            if len(owners) > 1:
                problems.append(f"block {block}: multiple owners {owners}")
            dir_owner = self._owner.get(block)
            if owners and dir_owner != owners[0]:
                problems.append(
                    f"block {block}: directory owner {dir_owner} != actual {owners[0]}"
                )
            dir_sharers = sharer_nodes(self._sharers.get(block, 0))
            if sorted(readable) != dir_sharers:
                problems.append(
                    f"block {block}: directory sharers {dir_sharers} != "
                    f"actual {sorted(readable)}"
                )
        return problems

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Return the full checkpointable memory-system state."""
        return {
            "l1i": [c.snapshot() for c in self.l1i],
            "l1d": [c.snapshot() for c in self.l1d],
            "l2": [c.snapshot() for c in self.l2],
            "owner": dict(self._owner),
            "sharers": {b: set(sharer_nodes(s)) for b, s in self._sharers.items()},
            "block_busy": dict(self._block_busy),
            "crossbar": self.crossbar.snapshot(),
            "dram": self.dram.snapshot(),
            "perturb": self._perturb.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore from a :meth:`snapshot` value."""
        self.l1i = [
            SetAssociativeCache.restore(self.config.l1i, s, name=f"l1i{i}")
            for i, s in enumerate(state["l1i"])
        ]
        self.l1d = [
            SetAssociativeCache.restore(self.config.l1d, s, name=f"l1d{i}")
            for i, s in enumerate(state["l1d"])
        ]
        self.l2 = [
            SetAssociativeCache.restore(self.config.l2, s, name=f"l2_{i}")
            for i, s in enumerate(state["l2"])
        ]
        self._owner = dict(state["owner"])
        self._sharers = {
            b: sum(1 << node for node in s) for b, s in state["sharers"].items()
        }
        self._block_busy = dict(state["block_busy"])
        self.crossbar.restore_state(state["crossbar"])
        self.dram.restore_state(state["dram"])
        self._perturb = RandomStream.restore(state["perturb"])
        self.stats = HierarchyStats()

    def copy_state_from(self, other: "MemoryHierarchy") -> None:
        """Take the state of ``other`` (same configuration) by value.

        The result is what ``restore_state(other.snapshot())`` builds,
        without the trip through the external format: every table is
        copied with ``dict.copy()`` and holds only ints, so the two
        hierarchies share nothing mutable afterwards.
        """
        for mine, theirs in (
            (self.l1i, other.l1i), (self.l1d, other.l1d), (self.l2, other.l2)
        ):
            for cache, source in zip(mine, theirs):
                cache.copy_from(source)
        self._owner = other._owner.copy()
        self._sharers = other._sharers.copy()
        self._block_busy = other._block_busy.copy()
        self.crossbar.restore_state(other.crossbar.snapshot())
        self.dram.restore_state(other.dram.snapshot())
        self._perturb = RandomStream.restore(other._perturb.snapshot())
        self.stats = HierarchyStats()
