"""Property tests for the integer-coded miss path and the stream memo.

Two equivalence claims back the hot-path optimisations:

1. The flat integer transition tables (``int_table_for``) encode exactly
   the enum transition tables -- transition-for-transition, action-for-
   action, across all three protocols.

2. A memoized transaction stream is byte-identical to a regenerated one
   for every generator: filling the memo with one program and replaying
   a second from the same coordinates yields the same op lists and the
   same mutable generator state as building from scratch.
"""

import pytest

from repro.config import SystemConfig
from repro.memory.coherence import (
    ACTION_FLAGS,
    EVENT_CODES,
    N_COHERENCE_STATES,
    N_EVENTS,
    STATE_CODES,
    STATE_NAMES,
    MOSIState,
    ProtocolEvent,
    available_protocols,
    encode_actions,
    event_column,
    int_table_for,
    transitions_for,
)
from repro.isa import OP_CPU, OP_TXN_END
from repro.system.machine import Machine
from repro.workloads.base import (
    _MEMO_STREAM_CAP,
    WorkloadClock,
    WorkloadProgram,
    stream_memo_stats,
)
from repro.workloads.registry import available_workloads, make_workload

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis unavailable"
)

PROTOCOLS = available_protocols()
WORKLOADS = available_workloads()


# ---------------------------------------------------------------------------
# 1. flat int tables == enum tables (exhaustive)
# ---------------------------------------------------------------------------
class TestIntTableEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_enum_transition_is_encoded(self, protocol):
        enum_table = transitions_for(protocol)
        flat = int_table_for(protocol)
        for (state, event), transition in enum_table.items():
            entry = flat[STATE_CODES[state.value] * N_EVENTS + EVENT_CODES[event]]
            assert entry is not None, (protocol, state, event)
            flags, next_code = entry
            assert flags == encode_actions(transition.actions)
            assert STATE_NAMES[next_code] == transition.next_state.value

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_no_extra_transitions(self, protocol):
        enum_table = transitions_for(protocol)
        flat = int_table_for(protocol)
        assert len(flat) == N_COHERENCE_STATES * N_EVENTS
        assert sum(1 for entry in flat if entry is not None) == len(enum_table)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_event_columns_slice_the_table(self, protocol):
        flat = int_table_for(protocol)
        for event, event_code in EVENT_CODES.items():
            column = event_column(flat, event_code)
            assert len(column) == len(STATE_NAMES)
            for state_code in range(N_COHERENCE_STATES):
                assert column[state_code] == flat[state_code * N_EVENTS + event_code]
            # L1 permission tags (RO/RW) share the code space but have no
            # coherence transitions: padded illegal.
            for state_code in range(N_COHERENCE_STATES, len(STATE_NAMES)):
                assert column[state_code] is None

    def test_action_flags_are_distinct_bits(self):
        seen = 0
        for flag in ACTION_FLAGS.values():
            assert flag & seen == 0, "overlapping action flags"
            seen |= flag

    @needs_hypothesis
    @settings(max_examples=200, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        state=st.sampled_from(list(MOSIState)),
        event=st.sampled_from(list(ProtocolEvent)),
    )
    def test_random_pairs_agree(self, protocol, state, event):
        enum_table = transitions_for(protocol)
        flat = int_table_for(protocol)
        entry = flat[STATE_CODES[state.value] * N_EVENTS + EVENT_CODES[event]]
        transition = enum_table.get((state, event))
        if transition is None:
            assert entry is None
        else:
            assert entry == (
                encode_actions(transition.actions),
                STATE_CODES[transition.next_state.value],
            )


# ---------------------------------------------------------------------------
# 2. memoized streams are byte-identical to regenerated streams
# ---------------------------------------------------------------------------
def _drive(program, clock, script, global_queue):
    """Run ``program`` over a scripted clock history, returning the deep
    op lists and the extra-state after-images it produced."""
    out = []
    for bump in script:
        # Other threads committing transactions move the workload clock;
        # the global-queue ticket counter is driven by next_ops itself.
        clock.total_transactions += bump
        ops = program.next_ops(None)
        out.append(([tuple(op) for op in ops], dict(program.extra_state())))
    return out


def _memo_identity(name, seed, script):
    """Build streams three ways -- unmemoized, memo-fill, memo-replay --
    and require byte-identical results."""
    runs = []
    fill_bucket: dict = {}
    for bucket in (None, fill_bucket, fill_bucket):
        workload = make_workload(name, seed=seed)
        clock = WorkloadClock()
        program = workload.make_program(1, clock)
        program._memo = bucket
        runs.append(_drive(program, clock, script, program.global_queue))
    unmemoized, filled, replayed = runs
    assert filled == unmemoized, f"{name}: memo-fill diverged from plain build"
    assert replayed == unmemoized, f"{name}: memo-replay diverged from plain build"
    if script:
        assert fill_bucket, f"{name}: memo bucket stayed empty"


class TestStreamMemoIdentity:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_replay_is_byte_identical(self, name):
        _memo_identity(name, seed=42, script=[0, 3, 1, 0, 7, 2, 0, 0, 5, 1])

    @needs_hypothesis
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(WORKLOADS),
        seed=st.integers(min_value=0, max_value=2**31),
        script=st.lists(st.integers(min_value=0, max_value=9), max_size=12),
    )
    def test_replay_is_byte_identical_random(self, name, seed, script):
        _memo_identity(name, seed, script)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_cold_clock_replay_hits(self, name):
        """A second program replaying the same coordinates must *hit* (not
        silently rebuild) when the generator's stream token allows it --
        here the clock history is identical, so every generator must."""
        from repro.workloads.base import stream_memo_stats

        bucket: dict = {}
        script = [0, 2, 0, 1, 4, 0]
        before = None
        for _ in range(2):
            workload = make_workload(name, seed=9)
            clock = WorkloadClock()
            program = workload.make_program(0, clock)
            program._memo = bucket
            _drive(program, clock, script, program.global_queue)
            if before is None:
                before = stream_memo_stats().hits
        assert stream_memo_stats().hits - before >= len(script) - 1

def test_reset_keeps_live_machines_attached():
    """``reset_stream_memo`` empties the buckets in place: a machine
    built before the reset and one built after it on the same stream key
    still share one bucket, so what the first builds the second replays."""
    from repro.workloads.base import reset_stream_memo, stream_memo_stats

    def build():
        machine = Machine(SystemConfig(n_cpus=2), make_workload("specjbb", seed=77))
        machine.hierarchy.seed_perturbation(3)
        return machine

    before_reset = build()
    reset_stream_memo()
    after_reset = build()
    before_reset.run_until_transactions(20, max_time_ns=10**12)
    stats = stream_memo_stats()
    hits = stats.hits
    after_reset.run_until_transactions(20, max_time_ns=10**12)
    assert stats.hits - hits >= 20


class _CarryProgram(WorkloadProgram):
    """A generator whose every transaction moves extra state, as every
    OLTP program's does: the memo must key on the before-image and
    replay the after-image."""

    global_queue = False

    def __init__(self, clock):
        super().__init__("carry", 0, 1, clock)
        self.carry = 0
        self.builds = 0

    def build_transaction(self):
        self.builds += 1
        self.carry += 3
        return [(OP_CPU, 10 + self.carry, 64), (OP_TXN_END, 0)]

    def stream_token(self):
        return 0

    def extra_state(self):
        return {"carry": self.carry}

    def restore_extra(self, extra):
        self.carry = extra["carry"]


def test_stream_cap_counts_transactions_not_dict_slots():
    """The per-stream cap is 4,096 *transactions*: a program with extra
    state retains that many (the after-image rides in the entry's blob,
    not in a sibling slot), and the 4,097th is built but not retained."""
    bucket: dict = {}
    clock = WorkloadClock()
    writer = _CarryProgram(clock)
    writer._memo = bucket
    built = [writer.next_ops(None) for _ in range(_MEMO_STREAM_CAP + 1)]
    assert writer.builds == _MEMO_STREAM_CAP + 1
    assert len(bucket) == _MEMO_STREAM_CAP == 4096

    reader = _CarryProgram(clock)
    reader._memo = bucket
    stats = stream_memo_stats()
    hits = stats.hits
    replayed = [reader.next_ops(None) for _ in range(_MEMO_STREAM_CAP)]
    assert (reader.builds, stats.hits - hits) == (0, _MEMO_STREAM_CAP)
    assert reader.carry == 3 * _MEMO_STREAM_CAP
    assert reader.next_ops(None) == built[-1] and reader.builds == 1
    assert replayed == built[:-1]
    assert len(bucket) == _MEMO_STREAM_CAP


def test_unmarshallable_op_fields_are_served_unmemoized():
    class Exotic(_CarryProgram):
        def build_transaction(self):
            self.builds += 1
            return [(OP_CPU, object(), 64)]

    program = Exotic(WorkloadClock())
    program._memo = {}
    assert len(program.next_ops(None)) == 1 and len(program.next_ops(None)) == 1
    assert program.builds == 2 and program._memo == {}
