"""Tests for the assembled memory hierarchy (timing + coherence)."""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import SRC_CACHE, SRC_L1, SRC_L2, SRC_MEMORY, SRC_UPGRADE
from repro.config import CacheConfig, SystemConfig
from repro.memory.coherence import MOSIState, available_protocols
from repro.memory.hierarchy import L1_READ_ONLY, L1_READ_WRITE, MemoryHierarchy


def hierarchy(n_cpus=4, perturbation=0) -> MemoryHierarchy:
    config = SystemConfig(n_cpus=n_cpus).with_perturbation(perturbation)
    return MemoryHierarchy(config)


ADDR = 0x4000_0000  # shared region


class TestBasicLatencies:
    def test_cold_load_comes_from_memory(self):
        h = hierarchy()
        result = h.access(0, ADDR, False, 0)
        assert result[1] == SRC_MEMORY
        # 1 (L1) + 20 (L2) + 100 (crossbar round trip) + 80 (DRAM) = 201.
        assert result[0] == 201

    def test_l1_hit_after_fill(self):
        h = hierarchy()
        h.access(0, ADDR, False, 0)
        result = h.access(0, ADDR, False, 10)
        assert result[1] == SRC_L1
        assert result[0] == 1

    def test_l2_hit_after_l1_eviction(self):
        h = hierarchy()
        h.access(0, ADDR, False, 0)
        # Evict the block from L1 by filling its set (L1: 32 sets, 4 ways).
        sets = h.l1d[0].n_sets
        for i in range(1, 5):
            h.access(0, ADDR + i * sets * 64, False, 0)
        result = h.access(0, ADDR, False, 10)
        assert result[1] == SRC_L2

    def test_cache_to_cache_transfer(self):
        h = hierarchy()
        h.access(0, ADDR, True, 0)  # node 0 takes M
        result = h.access(1, ADDR, False, 1000)
        assert result[1] == SRC_CACHE
        # 1 + 20 + 100 (crossbar) + 25 (provider) = 146.
        assert result[0] == 146

    def test_upgrade_latency(self):
        h = hierarchy()
        h.access(0, ADDR, False, 0)  # S
        result = h.access(0, ADDR, True, 1000)
        assert result[1] == SRC_UPGRADE
        assert h.stats.upgrades == 1


class TestCoherenceBehaviour:
    def test_m_demotes_to_o_on_remote_read(self):
        h = hierarchy()
        h.access(0, ADDR, True, 0)
        h.access(1, ADDR, False, 1000)
        assert h.l2[0].peek(ADDR // 64).state == MOSIState.O.value
        assert h.l2[1].peek(ADDR // 64).state == MOSIState.S.value

    def test_remote_write_invalidates_sharers(self):
        h = hierarchy()
        h.access(0, ADDR, False, 0)
        h.access(1, ADDR, False, 100)
        h.access(2, ADDR, True, 2000)
        assert h.l2[0].peek(ADDR // 64) is None
        assert h.l2[1].peek(ADDR // 64) is None
        assert h.l2[2].peek(ADDR // 64).state == MOSIState.M.value

    def test_write_invalidation_reaches_l1(self):
        h = hierarchy()
        h.access(0, ADDR, False, 0)
        assert h.l1d[0].peek(ADDR // 64) is not None
        h.access(1, ADDR, True, 1000)
        assert h.l1d[0].peek(ADDR // 64) is None

    def test_l1_demoted_when_owner_loses_exclusivity(self):
        h = hierarchy()
        h.access(0, ADDR, True, 0)
        assert h.l1d[0].peek(ADDR // 64).state == L1_READ_WRITE
        h.access(1, ADDR, False, 1000)
        assert h.l1d[0].peek(ADDR // 64).state == L1_READ_ONLY

    def test_write_to_read_only_l1_goes_coherent(self):
        h = hierarchy()
        h.access(0, ADDR, False, 0)
        h.access(1, ADDR, False, 100)  # two sharers
        result = h.access(0, ADDR, True, 2000)
        assert result[1] == SRC_UPGRADE
        assert h.l2[1].peek(ADDR // 64) is None

    def test_second_write_is_l1_hit(self):
        h = hierarchy()
        h.access(0, ADDR, True, 0)
        result = h.access(0, ADDR, True, 10)
        assert result[1] == SRC_L1

    def test_dirty_eviction_writes_back(self):
        h = hierarchy(n_cpus=1)
        sets = h.l2[0].n_sets
        h.access(0, ADDR, True, 0)
        for i in range(1, 5):
            h.access(0, ADDR + i * sets * 64, False, i * 1000)
        assert h.stats.writebacks == 1
        assert h.dram.stats.writebacks == 1

    def test_instruction_fetch_uses_l1i(self):
        h = hierarchy()
        h.access(0, ADDR, False, 0, is_instruction=True)
        assert h.l1i[0].peek(ADDR // 64) is not None
        assert h.l1d[0].peek(ADDR // 64) is None


class TestInvariants:
    def test_invariants_after_clean_sequence(self):
        h = hierarchy()
        h.access(0, ADDR, False, 0)
        h.access(1, ADDR, False, 100)
        h.access(2, ADDR, True, 1000)
        h.access(3, ADDR, False, 2000)
        assert h.check_coherence_invariants() == []

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),   # node
                st.integers(min_value=0, max_value=40),  # block choice
                st.booleans(),                            # write
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_property_invariants_hold_under_random_traffic(self, ops):
        h = hierarchy()
        now = 0
        for node, block_choice, write in ops:
            now += 13
            h.access(node, ADDR + block_choice * 64, write, now)
        assert h.check_coherence_invariants() == []

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=600),
                st.booleans(),
            ),
            min_size=1,
            max_size=150,
        )
    )
    def test_property_invariants_hold_under_eviction_pressure(self, ops):
        """Same-set traffic forces evictions; invariants must survive."""
        h = hierarchy()
        sets = h.l2[0].n_sets
        now = 0
        for node, stride, write in ops:
            now += 13
            # All blocks in one L2 set: maximum conflict pressure.
            h.access(node, ADDR + stride * sets * 64, write, now)
        assert h.check_coherence_invariants() == []


class TestPerturbation:
    def test_zero_perturbation_adds_nothing(self):
        h = hierarchy(perturbation=0)
        h.access(0, ADDR, False, 0)
        assert h.stats.perturbation_total_ns == 0

    def test_perturbation_accumulates_on_misses(self):
        h = hierarchy(perturbation=4)
        h.seed_perturbation(3)
        for i in range(200):
            h.access(0, ADDR + i * 64, False, i * 10)
        total = h.stats.perturbation_total_ns
        assert 0 < total <= 4 * 200
        # Uniform 0..4: expect about 2 per miss.
        assert 200 <= total <= 600

    def test_same_seed_same_jitter(self):
        results = []
        for _ in range(2):
            h = hierarchy(perturbation=4)
            h.seed_perturbation(42)
            latencies = [h.access(0, ADDR + i * 64, False, i * 10)[0] for i in range(50)]
            results.append(latencies)
        assert results[0] == results[1]

    def test_different_seeds_different_jitter(self):
        latencies = []
        for seed in (1, 2):
            h = hierarchy(perturbation=4)
            h.seed_perturbation(seed)
            latencies.append(
                [h.access(0, ADDR + i * 64, False, i * 10)[0] for i in range(50)]
            )
        assert latencies[0] != latencies[1]


class TestBlockRaces:
    def test_racing_requests_serialize(self):
        h = hierarchy()
        h.access(0, ADDR, True, 0)
        h.access(1, ADDR, True, 1)  # within the first transaction's window
        assert h.stats.block_race_stalls >= 1

    def test_spaced_requests_do_not_stall(self):
        h = hierarchy()
        h.access(0, ADDR, True, 0)
        h.access(1, ADDR, True, 50_000)
        assert h.stats.block_race_stalls == 0


class TestSnapshotRestore:
    def test_roundtrip_preserves_behaviour(self):
        h = hierarchy()
        h.seed_perturbation(5)
        for i in range(60):
            h.access(i % 4, ADDR + (i % 20) * 64, i % 3 == 0, i * 17)
        state = h.snapshot()
        follow_on = [(2, ADDR + 5 * 64, True), (3, ADDR + 21 * 64, False)]
        expected = [h.access(n, a, w, 10_000 + i) [0] for i, (n, a, w) in enumerate(follow_on)]
        h2 = hierarchy()
        h2.restore_state(state)
        actual = [h2.access(n, a, w, 10_000 + i)[0] for i, (n, a, w) in enumerate(follow_on)]
        assert actual == expected
        assert h2.check_coherence_invariants() == []


    def test_external_format_is_names_bools_and_sets(self):
        """Inside, a line is ``code << 1 | dirty`` and a sharer entry a node
        bitmask; the snapshot keeps the historical ``(block, state name,
        dirty bool)`` triples and sharer *sets* (checkpoint digests and
        stored checkpoints depend on it), also for functional accesses
        whose write flag is the op stream's int 0/1."""
        h = hierarchy()
        block = ADDR // 64
        h.access(0, ADDR, True, 0)
        h.access(1, ADDR, False, 100)
        h.access_functional(2, ADDR + 64, 1, 200)
        assert h._sharers[block] == 0b11 and h._owner[block] == 0
        assert all(type(v) is int for c in h.l2 + h.l1d for s in c._sets for v in s.values())
        state = h.snapshot()
        assert state["sharers"] == {block: {0, 1}, block + 1: {2}}
        assert type(state["sharers"][block]) is set
        (line,) = state["l2"][0]["sets"][block % h.l2[0].n_sets]
        assert line == (block, "O", True) and type(line[2]) is bool
        (line,) = state["l1d"][2]["sets"][(block + 1) % h.l1d[2].n_sets]
        assert line == (block + 1, "RW", True) and type(line[2]) is bool
        h2 = hierarchy()
        h2.restore_state(state)
        assert h2._sharers == h._sharers and h2.snapshot() == state


CODE = 0x1000_0000  # instruction region


def reference_trace(l1_sets: int, l2_sets: int) -> list[tuple[int, int, bool, bool]]:
    """A fixed ``(node, address, is_write, is_instruction)`` trace over 4
    nodes: a shared pool every node loads and stores (fills, upgrades,
    invalidations, cache-to-cache transfers), a same-L2-set stride that
    overflows the ways (clean and dirty victims), a per-node same-L1-set
    walk (L1 victims, L2 hits), and I-fetches."""
    trace = []
    for i in range(900):
        node = (i + i // 7) % 4
        if i % 11 == 0:
            trace.append((node, CODE + (i % 9) * 64, False, True))
        elif i % 3 == 0:
            stride = (i // 3) % 5
            trace.append((node, ADDR + stride * l2_sets * 64, i % 2 == 0, False))
        elif i % 5 == 1:
            private = ADDR + (node << 20) + ((i // 5) % 6) * l1_sets * 64
            trace.append((node, private, i % 7 == 0, False))
        else:
            shared = ADDR + ((i * i // 9) % 24 + 1) * 64
            trace.append((node, shared, (i // 4) % 3 == 0, False))
    return trace


class TestTimedFunctionalContract:
    """``access`` and ``access_functional`` are one engine: on a fixed
    multi-node reference order they must leave identical architectural
    state, and the functional side must not touch anything timing owns."""

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_functional_leaves_timed_state_and_no_timing_state(self, protocol):
        config = replace(
            SystemConfig(n_cpus=4).with_perturbation(4).with_protocol(protocol),
            l2=CacheConfig(size_bytes=16 * 1024, associativity=2, hit_latency_ns=20),
        )

        def build():
            h = MemoryHierarchy(config)
            h.seed_perturbation(11)
            events = []
            h.set_cache_probe(lambda *event: events.append(event))
            return h, events

        timed, timed_events = build()
        functional, functional_events = build()
        fresh, _ = build()
        trace = reference_trace(config.l1d.n_sets, config.l2.n_sets)
        clock = range(0, 13 * len(trace), 13)  # tight: same-block races
        for now, (node, address, is_write, is_instruction) in zip(clock, trace):
            timed.access(node, address, is_write, now, is_instruction)
            fired = len(functional_events)
            functional.access_functional(node, address, is_write, now, is_instruction)
            # (c, functional half) the probe sees the caller's clock, latency 0
            assert [(e[0], e[4]) for e in functional_events[fired:]] in ([], [(now, 0)])

        # The trace exercises every leg (else the equalities below are vacuous).
        stats = timed.stats
        assert min(stats.upgrades, stats.cache_to_cache, stats.memory_fetches) > 0
        assert min(stats.writebacks, stats.block_race_stalls) > 0
        assert stats.perturbation_total_ns > 0
        assert timed.dram.stats.writebacks > 0
        assert stats.l2_hits > 0
        assert all(c.stats.evictions > 0 for c in timed.l2 + timed.l1d)
        assert sum(c.stats.hits for c in timed.l1i) > 0

        # (a) identical contents, directory and per-set LRU order
        assert functional.occupancy(include_order=True) == timed.occupancy(
            include_order=True
        )
        assert functional.check_coherence_invariants() == []

        # (b) identical counters, minus the two only time can produce
        expected = asdict(timed.stats)
        expected["perturbation_total_ns"] = expected["block_race_stalls"] = 0
        assert asdict(functional.stats) == expected
        for level in ("l1i", "l1d", "l2"):
            assert [c.stats for c in getattr(functional, level)] == [
                c.stats for c in getattr(timed, level)
            ]

        # (c) identical probe events, one per global transaction.
        # Event: (now, node, block, source, latency_ns, is_write).
        def identity(events):
            return [(e[1], e[2], e[3], e[5]) for e in events]

        assert identity(functional_events) == identity(timed_events)
        assert len(functional_events) == stats.l2_misses
        assert all(e[4] > 0 for e in timed_events)

        # (d) nothing timing owns moved on the functional side
        assert functional._block_busy == {}
        assert functional.crossbar.snapshot() == fresh.crossbar.snapshot()
        assert functional.dram.snapshot() == fresh.dram.snapshot()
        assert functional._perturb.snapshot() == fresh._perturb.snapshot()
        assert timed._perturb.snapshot() != fresh._perturb.snapshot()
