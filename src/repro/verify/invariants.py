"""Live invariant checkers, attached through the probe bus.

Each checker is an ordinary probe collector (it exposes ``on_<hook>``
methods and :meth:`ProbeBus.attach` wires them up), so checking costs
nothing when not attached -- the same zero-cost contract every probe
obeys.  Checkers record violations as human-readable strings instead of
raising mid-run: a broken simulator often violates several invariants at
once, and the report should show all of them, not just the first.

The catalogue (DESIGN.md section 7):

==================  ====================================================
coherence           SWMR -- at most one Modified/Exclusive copy of a
                    block across L2s, a writable copy never coexists
                    with other readable copies, at most one owner, and
                    the directory (owner + sharer bitmask) always matches
                    the actual L2 states.  Checked per global
                    transaction on the transacted block, and over every
                    resident block at finalize; L1 write permission is
                    additionally required to be backed by a local L2
                    copy in M (inclusion).
lock                unlock only by the holder; a holder never blocks on
                    its own lock; hand-offs wake actual waiters; at
                    quiesce, waiter queues hold only ``BLOCKED_LOCK``
                    threads (each in exactly one queue), holders are
                    live threads, and a free-but-contended lock always
                    has a wakeup in flight (no lost wakeups).
sched               dispatch times never run backwards, a dispatched
                    thread is RUNNING on exactly one CPU, the quantum
                    deadline is set to now + quantum, and accumulated
                    per-thread CPU time never exceeds wall-clock x CPUs
                    (with one-slice slack for mid-slice accounting).
time                per-thread op and transaction timestamps are
                    monotone non-decreasing; probe payloads are sane
                    (non-negative times/latencies, valid source codes).
stats               conservation -- L1 hits + L2 hits + L2 misses equals
                    total accesses, every L2 miss is satisfied by
                    exactly one of cache-to-cache/memory/upgrade, and
                    transaction counters agree between the machine, the
                    probe stream, and the per-thread stats.
==================  ====================================================
"""

from __future__ import annotations

from repro.isa import OP_LOCK, OP_UNLOCK, SOURCE_NAMES
from repro.memory.coherence import MOSIState, is_readable
from repro.memory.hierarchy import L1_READ_WRITE, sharer_nodes
from repro.osmodel.thread import ThreadState
from repro.probes import ProbeBus
from repro.sim.events import EV_READY

#: per-checker cap on recorded violations (a catastrophic bug would
#: otherwise accumulate one string per event)
MAX_VIOLATIONS = 25

#: slack allowed per CPU in the cpu-time conservation bound: a slice
#: accounts its time at the end, so accrued time can run ahead of the
#: global clock by up to one interleave slice plus one op's latency
CPU_TIME_SLACK_NS = 100_000


class InvariantViolation(AssertionError):
    """Raised by :meth:`InvariantSuite.assert_clean` when any invariant
    checker recorded a violation."""


class _Checker:
    """Base: a bounded violation log shared by all checkers."""

    name = "checker"

    def __init__(self, machine) -> None:
        self.machine = machine
        self.violations: list[str] = []
        self._suppressed = 0

    def report(self, message: str) -> None:
        """Record one violation (bounded; overflow is counted)."""
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(f"[{self.name}] {message}")
        else:
            self._suppressed += 1

    def finalize(self) -> None:
        """End-of-run checks; default adds the suppression marker."""
        if self._suppressed:
            self.violations.append(
                f"[{self.name}] ... {self._suppressed} further violations suppressed"
            )


class CoherenceChecker(_Checker):
    """SWMR + directory consistency, live per global transaction."""

    name = "coherence"

    def check_block(self, block: int) -> None:
        """Verify the single-writer/directory invariants for one block."""
        hierarchy = self.machine.hierarchy
        copies = []
        for node in range(hierarchy.config.n_cpus):
            line = hierarchy.l2[node].peek(block)
            if line is not None:
                copies.append((node, MOSIState(line.state)))
        writers = [n for n, s in copies if s in (MOSIState.M, MOSIState.E)]
        owners = [n for n, s in copies if s in hierarchy._owner_states]
        readable = {n for n, s in copies if is_readable(s)}
        if len(writers) > 1:
            self.report(f"block {block}: multiple writable copies at {writers}")
        if writers and len(readable) > 1:
            self.report(
                f"block {block}: writable copy at {writers[0]} coexists with "
                f"sharers {sorted(readable - set(writers))}"
            )
        if len(owners) > 1:
            self.report(f"block {block}: multiple owners {owners}")
        dir_owner = hierarchy._owner.get(block)
        if owners and dir_owner != owners[0]:
            self.report(
                f"block {block}: directory owner {dir_owner} != actual {owners[0]}"
            )
        if not owners and dir_owner is not None:
            self.report(
                f"block {block}: directory claims owner {dir_owner} but no "
                "owner-state copy exists"
            )
        dir_sharers = sharer_nodes(hierarchy._sharers.get(block, 0))
        if sorted(readable) != dir_sharers:
            self.report(
                f"block {block}: directory sharers {dir_sharers} != "
                f"actual {sorted(readable)}"
            )

    def on_cache(self, now, node, block, source, latency_ns, is_write) -> None:
        self.check_block(block)

    def finalize(self) -> None:
        hierarchy = self.machine.hierarchy
        for problem in hierarchy.check_coherence_invariants():
            self.report(f"final: {problem}")
        # Inclusion: an L1 line with write permission requires the local
        # L2 copy to be Modified (the only state that grants it).
        for node in range(hierarchy.config.n_cpus):
            for block in hierarchy.l1d[node].resident_blocks():
                line = hierarchy.l1d[node].peek(block)
                if line.state != L1_READ_WRITE:
                    continue
                l2_line = hierarchy.l2[node].peek(block)
                if l2_line is None or l2_line.state != MOSIState.M.value:
                    backing = "absent" if l2_line is None else l2_line.state
                    self.report(
                        f"node {node} block {block}: RW L1 copy backed by "
                        f"L2 state {backing} (must be M)"
                    )
        super().finalize()


class LockChecker(_Checker):
    """Mutual exclusion, hand-off legality, and no lost wakeups."""

    name = "lock"

    def on_op(self, now, cpu, tid, op) -> None:
        code = op[0]
        if code != OP_UNLOCK and code != OP_LOCK:
            return
        mutex = self.machine.locks._mutexes.get(op[1])
        if code == OP_UNLOCK:
            if mutex is None or mutex.holder != tid:
                holder = None if mutex is None else mutex.holder
                self.report(
                    f"t={now}: thread {tid} unlocks lock {op[1]} held by {holder}"
                )
        elif mutex is not None and mutex.holder == tid:
            self.report(
                f"t={now}: thread {tid} re-acquires lock {op[1]} it already holds"
            )

    def on_lock(self, event, now, tid, lock_id) -> None:
        mutex = self.machine.locks._mutexes.get(lock_id)
        if mutex is None:
            self.report(f"t={now}: {event} on unknown lock {lock_id}")
            return
        if event == "block":
            if mutex.holder == tid:
                self.report(
                    f"t={now}: thread {tid} blocks on lock {lock_id} it holds"
                )
            if mutex.waiters.count(tid) != 1:
                self.report(
                    f"t={now}: blocked thread {tid} appears "
                    f"{mutex.waiters.count(tid)}x in lock {lock_id}'s queue"
                )
        elif event == "handoff":
            thread = self.machine.scheduler.threads.get(tid)
            if thread is None:
                self.report(f"t={now}: hand-off to unknown thread {tid}")
            elif thread.blocked_on_lock != lock_id:
                self.report(
                    f"t={now}: lock {lock_id} handed to thread {tid} blocked "
                    f"on {thread.blocked_on_lock}"
                )

    def finalize(self) -> None:
        machine = self.machine
        threads = machine.scheduler.threads
        waiting_somewhere: dict[int, int] = {}
        # Wakeups still in flight: EV_READY events plus already-woken
        # threads that have not yet re-executed their acquire.
        pending_ready = {
            event[3]
            for event in machine.events.snapshot()["events"]
            if event[2] == EV_READY
        }
        for mutex in machine.locks.all_mutexes():
            if mutex.holder is not None:
                holder = threads.get(mutex.holder)
                if holder is None or holder.state is ThreadState.FINISHED:
                    self.report(
                        f"lock {mutex.lock_id} held by "
                        f"{'unknown' if holder is None else 'finished'} "
                        f"thread {mutex.holder}"
                    )
            for tid in mutex.waiters:
                if tid in waiting_somewhere:
                    self.report(
                        f"thread {tid} waits on locks "
                        f"{waiting_somewhere[tid]} and {mutex.lock_id}"
                    )
                waiting_somewhere[tid] = mutex.lock_id
                thread = threads.get(tid)
                if thread is None:
                    self.report(f"lock {mutex.lock_id} waiter {tid} unknown")
                elif thread.state is not ThreadState.BLOCKED_LOCK:
                    self.report(
                        f"lock {mutex.lock_id} waiter {tid} in state "
                        f"{thread.state.value}, not blocked_lock"
                    )
                elif thread.blocked_on_lock != mutex.lock_id:
                    self.report(
                        f"lock {mutex.lock_id} waiter {tid} records "
                        f"blocked_on_lock={thread.blocked_on_lock}"
                    )
            if mutex.holder is None and mutex.waiters:
                # Barging window: legal only while a grant is in flight --
                # a woken (READY/RUNNING) thread about to re-acquire, or a
                # pending EV_READY for a thread blocked on this lock.
                woken = any(
                    t.blocked_on_lock == mutex.lock_id
                    and t.state in (ThreadState.READY, ThreadState.RUNNING)
                    for t in threads.values()
                )
                in_flight = any(
                    threads[tid].blocked_on_lock == mutex.lock_id
                    for tid in pending_ready
                    if tid in threads
                )
                if not woken and not in_flight:
                    self.report(
                        f"lost wakeup: lock {mutex.lock_id} is free with "
                        f"waiters {mutex.waiters} and no grant in flight"
                    )
        super().finalize()


class SchedChecker(_Checker):
    """Dispatch sanity and CPU-time conservation."""

    name = "sched"

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self._last_dispatch_ns = -1
        self._base_now = machine.clock.now
        self._base_cpu_time = {
            tid: thread.stats.cpu_time_ns
            for tid, thread in machine.scheduler.threads.items()
        }

    def on_sched(self, now, cpu, tid) -> None:
        if now < self._last_dispatch_ns:
            self.report(
                f"dispatch time ran backwards: {now} after {self._last_dispatch_ns}"
            )
        self._last_dispatch_ns = now
        scheduler = self.machine.scheduler
        if scheduler.current[cpu] != tid:
            self.report(
                f"t={now}: dispatched {tid} on cpu {cpu} but current is "
                f"{scheduler.current[cpu]}"
            )
        running_on = [
            c for c, current in enumerate(scheduler.current) if current == tid
        ]
        if len(running_on) > 1:
            self.report(f"t={now}: thread {tid} current on CPUs {running_on}")
        thread = scheduler.threads[tid]
        if thread.state is not ThreadState.RUNNING:
            self.report(
                f"t={now}: dispatched thread {tid} in state {thread.state.value}"
            )
        expected_deadline = now + scheduler.config.quantum_ns
        if thread.quantum_deadline != expected_deadline:
            self.report(
                f"t={now}: thread {tid} quantum deadline "
                f"{thread.quantum_deadline} != dispatch + quantum "
                f"{expected_deadline}"
            )

    def finalize(self) -> None:
        machine = self.machine
        wall = machine.clock.now - self._base_now
        budget = wall + CPU_TIME_SLACK_NS
        total = 0
        for tid, thread in machine.scheduler.threads.items():
            used = thread.stats.cpu_time_ns - self._base_cpu_time.get(tid, 0)
            if used < 0:
                self.report(f"thread {tid} cpu_time_ns decreased by {-used}")
            elif used > budget:
                self.report(
                    f"thread {tid} accrued {used} ns of CPU time in {wall} ns "
                    "of wall clock"
                )
            total += max(used, 0)
        n_cpus = machine.config.n_cpus
        if total > budget * n_cpus:
            self.report(
                f"aggregate CPU time {total} ns exceeds {n_cpus} CPUs x "
                f"{wall} ns wall clock"
            )
        super().finalize()


class TimeChecker(_Checker):
    """Per-thread time monotonicity and probe payload sanity."""

    name = "time"

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self._last_op_ns: dict[int, int] = {}
        self._last_txn_ns: dict[int, int] = {}

    def on_op(self, now, cpu, tid, op) -> None:
        last = self._last_op_ns.get(tid, 0)
        if now < last:
            self.report(f"thread {tid} op time ran backwards: {now} < {last}")
        self._last_op_ns[tid] = now

    def on_txn(self, now, tid, type_id) -> None:
        last = self._last_txn_ns.get(tid, 0)
        if now < last:
            self.report(
                f"thread {tid} transaction time ran backwards: {now} < {last}"
            )
        self._last_txn_ns[tid] = now

    def on_cache(self, now, node, block, source, latency_ns, is_write) -> None:
        if now < 0 or latency_ns < 0:
            self.report(
                f"negative time/latency in cache event: now={now}, "
                f"latency={latency_ns}"
            )
        if not 0 <= source < len(SOURCE_NAMES):
            self.report(f"t={now}: unknown access source code {source}")
        if block < 0:
            self.report(f"t={now}: negative block id {block}")


class StatChecker(_Checker):
    """Counter conservation across the hierarchy and the OS model."""

    name = "stats"

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.txn_events = 0
        self._base_completed = machine.completed_transactions

    def on_txn(self, now, tid, type_id) -> None:
        self.txn_events += 1

    def finalize(self) -> None:
        machine = self.machine
        stats = machine.hierarchy.stats
        satisfied = stats.l1_hits + stats.l2_hits + stats.l2_misses
        if stats.accesses != satisfied:
            self.report(
                f"accesses {stats.accesses} != l1_hits + l2_hits + l2_misses "
                f"{satisfied}"
            )
        resolved = stats.cache_to_cache + stats.memory_fetches + stats.upgrades
        if stats.l2_misses != resolved:
            self.report(
                f"l2_misses {stats.l2_misses} != cache-to-cache + memory + "
                f"upgrades {resolved}"
            )
        for field in (
            "accesses",
            "l1_hits",
            "l2_hits",
            "l2_misses",
            "cache_to_cache",
            "memory_fetches",
            "upgrades",
            "writebacks",
            "perturbation_total_ns",
            "block_race_stalls",
        ):
            if getattr(stats, field) < 0:
                self.report(f"negative counter {field}={getattr(stats, field)}")
        probed = machine.completed_transactions - self._base_completed
        if self.txn_events != probed:
            self.report(
                f"txn probe saw {self.txn_events} completions, machine "
                f"counted {probed}"
            )
        by_thread = sum(
            t.stats.transactions for t in machine.scheduler.threads.values()
        )
        if by_thread != machine.completed_transactions:
            self.report(
                f"per-thread transactions {by_thread} != machine total "
                f"{machine.completed_transactions}"
            )
        super().finalize()


class InvariantSuite:
    """All checkers wired onto one probe bus for one machine.

    Use :func:`attach_invariants` to construct and attach in one step.
    The suite is also a (read-only) window for tests: individual checkers
    are exposed as attributes (``coherence``, ``locks``, ``sched``,
    ``time``, ``stats``).
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.coherence = CoherenceChecker(machine)
        self.locks = LockChecker(machine)
        self.sched = SchedChecker(machine)
        self.time = TimeChecker(machine)
        self.stats = StatChecker(machine)
        self._checkers = (
            self.coherence,
            self.locks,
            self.sched,
            self.time,
            self.stats,
        )
        self.bus = ProbeBus()
        for checker in self._checkers:
            self.bus.attach(checker)
        self._finalized = False

    @property
    def violations(self) -> list[str]:
        """All violations recorded so far, in checker order."""
        return [v for checker in self._checkers for v in checker.violations]

    def finalize(self) -> list[str]:
        """Run the end-of-run checks and return every violation.

        Call at a quiesce point (after ``run_until_transactions``
        returned).  Idempotent: finalization checks run once.
        """
        if not self._finalized:
            self._finalized = True
            for checker in self._checkers:
                checker.finalize()
        return self.violations

    def assert_clean(self) -> None:
        """Finalize and raise :class:`InvariantViolation` on any finding."""
        violations = self.finalize()
        if violations:
            raise InvariantViolation(
                f"{len(violations)} invariant violation(s):\n  "
                + "\n  ".join(violations)
            )


def attach_invariants(machine) -> InvariantSuite:
    """Build an :class:`InvariantSuite` and attach it to ``machine``.

    Replaces any previously attached probe bus (the machine supports one
    bus at a time).  The suite's probes observe without perturbing, so a
    checked run is bit-identical to an unchecked one.
    """
    suite = InvariantSuite(machine)
    machine.attach_probes(suite.bus)
    return suite
