"""Event queue and simulation clock.

The machine model (:mod:`repro.system.machine`) is event-driven: each
pending activity (a core resuming execution, a thread waking from I/O, a
scheduler timer) is a plain tuple ``(time, sequence, kind, payload)`` in
a binary heap.  The sequence number gives deterministic FIFO tie-breaking
for simultaneous events, which is essential for reproducibility: two
events at the same nanosecond always fire in the order they were
scheduled.  Because sequence numbers are unique, tuple comparison never
reaches ``kind``/``payload``, so any payload type is allowed.

Events used to be an ``@dataclass(order=True)``; heap pushes and pops
called its generated ``__lt__`` (which builds comparison tuples per
call) several times per operation.  Plain tuples compare natively in C,
which is one of the hot-path wins of the dispatch-table refactor.

Machine event kinds are small integers (:data:`EV_CORE`, :data:`EV_READY`)
for the same reason the op ISA is integer-coded; the queue itself is
generic and accepts any kind value.
"""

from __future__ import annotations

import heapq
from typing import Any

#: machine event kinds (integer-coded, mirroring the op ISA)
EV_CORE = 0  # payload: cpu index -- the CPU is ready to execute
EV_READY = 1  # payload: tid -- a thread wakes and joins a run queue

#: a scheduled event is exactly this tuple shape
Event = tuple  # (time, sequence, kind, payload)


class EventQueue:
    """A deterministic event queue over plain-tuple events.

    Cancellation is lazy: :meth:`cancel` records the event's sequence
    number and :meth:`pop` skips cancelled entries.  This keeps
    scheduling O(log n) without heap surgery.  ``len(queue)`` is O(1):
    a live-event counter is maintained on schedule/cancel/pop instead of
    scanning the heap.
    """

    __slots__ = ("_heap", "_sequence", "_cancelled", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._sequence = 0
        self._cancelled: set[int] = set()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, time: int, kind: Any, payload: Any = None) -> tuple:
        """Add an event at absolute ``time`` and return its handle."""
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        event = (time, self._sequence, kind, payload)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def cancel(self, event: tuple) -> None:
        """Mark a pending event so it will be skipped when reached."""
        sequence = event[1]
        if sequence not in self._cancelled:
            self._cancelled.add(sequence)
            self._live -= 1

    def pop(self) -> tuple | None:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            event = heapq.heappop(heap)
            if cancelled and event[1] in cancelled:
                cancelled.discard(event[1])
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> int | None:
        """Return the time of the earliest live event without removing it."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])
        if not heap:
            return None
        return heap[0][0]

    def snapshot(self) -> dict:
        """Return a checkpointable copy of the queue state."""
        live = [
            list(event)
            for event in sorted(self._heap)
            if event[1] not in self._cancelled
        ]
        return {"events": live, "sequence": self._sequence}

    @classmethod
    def restore(cls, state: dict) -> "EventQueue":
        """Rebuild a queue from a :meth:`snapshot` value."""
        queue = cls()
        for time, sequence, kind, payload in state["events"]:
            heapq.heappush(queue._heap, (time, sequence, kind, payload))
            queue._live += 1
        queue._sequence = state["sequence"]
        return queue


class SimulationClock:
    """The global simulated-time clock.

    Simulated time is integer nanoseconds.  The target system clock is
    1 GHz (paper section 3.2.1), so one cycle equals one nanosecond and the
    two units are used interchangeably throughout.
    """

    def __init__(self, start_ns: int = 0) -> None:
        self._now = start_ns

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds (== cycles at 1 GHz)."""
        return self._now

    def advance_to(self, time_ns: int) -> None:
        """Move the clock forward to an absolute time."""
        if time_ns < self._now:
            raise ValueError(
                f"clock cannot run backwards: now={self._now}, requested={time_ns}"
            )
        self._now = time_ns

    def snapshot(self) -> int:
        """Return the checkpointable clock state."""
        return self._now

    @classmethod
    def restore(cls, state: int) -> "SimulationClock":
        """Rebuild a clock from a :meth:`snapshot` value."""
        return cls(start_ns=state)
