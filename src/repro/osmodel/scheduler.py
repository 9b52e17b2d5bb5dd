"""The CPU scheduler.

Models the scheduling behaviour the paper attributes variability to: each
CPU has a FIFO run queue and a scheduling quantum; ready threads prefer
their last CPU (affinity) but an idling CPU steals from the most loaded
queue.  Which thread a CPU picks therefore depends on *when* threads
become ready -- the timing-dependence that turns nanosecond perturbations
into divergent execution paths.

The scheduler also records the dispatch trace: one
:class:`ScheduleEvent` per decision, which is exactly the data plotted in
the paper's Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import OSConfig
from repro.osmodel.thread import SimThread, ThreadState


@dataclass(frozen=True)
class ScheduleEvent:
    """One scheduling decision (a point in Figure 1)."""

    time_ns: int
    cpu: int
    tid: int


class Scheduler:
    """Per-CPU run queues with affinity and idle stealing."""

    def __init__(self, config: OSConfig, n_cpus: int) -> None:
        self.config = config
        self.n_cpus = n_cpus
        self.run_queues: list[list[int]] = [[] for _ in range(n_cpus)]
        self.current: list[int | None] = [None] * n_cpus
        self.threads: dict[int, SimThread] = {}
        self.trace: list[ScheduleEvent] = []
        self.trace_enabled = False
        self.dispatches = 0
        self.migrations = 0
        #: probe-bus "sched" hook; None when no probe is attached
        self._probe = None

    def set_probe(self, callback) -> None:
        """Install (or clear, with None) the dispatch-decision probe.

        The callback fires as ``callback(now, cpu, tid)`` on every
        dispatch; it is None-checked on the dispatch path only, which is
        already dominated by queue manipulation.
        """
        self._probe = callback

    # ------------------------------------------------------------------
    # Thread registration
    # ------------------------------------------------------------------
    def add_thread(self, thread: SimThread) -> None:
        """Register a thread and place it on its preferred run queue."""
        if thread.tid in self.threads:
            raise ValueError(f"duplicate tid {thread.tid}")
        self.threads[thread.tid] = thread
        thread.state = ThreadState.READY
        self.run_queues[thread.last_cpu % self.n_cpus].append(thread.tid)

    # ------------------------------------------------------------------
    # Scheduling decisions
    # ------------------------------------------------------------------
    def make_ready(self, thread: SimThread) -> int:
        """Mark a thread runnable and enqueue it; returns the chosen CPU.

        The thread goes to its last CPU's queue (cache affinity).  If that
        CPU is busy with a deep queue while another CPU idles with an
        empty queue, it goes to the idle CPU instead (wake-up balancing).
        """
        thread.state = ThreadState.READY
        home = thread.last_cpu % self.n_cpus
        target = home
        if self.config.load_balance and (
            self.current[home] is not None or self.run_queues[home]
        ):
            for cpu in self._cpu_scan_order(home):
                if self.current[cpu] is None and not self.run_queues[cpu]:
                    target = cpu
                    break
        if target != home:
            self.migrations += 1
        self.run_queues[target].append(thread.tid)
        return target

    def _cpu_scan_order(self, home: int) -> list[int]:
        """Deterministic scan order starting after the home CPU."""
        return [(home + offset) % self.n_cpus for offset in range(1, self.n_cpus)]

    def pick_next(self, cpu: int, now: int) -> SimThread | None:
        """Dispatch the next thread on ``cpu`` (or steal), if any.

        Returns the chosen thread already marked RUNNING, or None when no
        work is available anywhere.
        """
        cpu %= self.n_cpus
        queue = self.run_queues[cpu]
        migrated = False
        if not queue and self.config.load_balance:
            victim = self._most_loaded_queue(cpu)
            # Steal only from a backlogged queue (>= 2 waiters): a lone
            # waiter is about to be picked up by its own (affinity-warm)
            # CPU, and stealing it would only shuffle cache state -- this
            # matters for one-thread-per-CPU scientific workloads, where
            # barrier releases would otherwise race the wakeups.
            if victim is not None and len(self.run_queues[victim]) >= 2:
                queue = self.run_queues[victim]
                migrated = True
        if not queue:
            self.current[cpu] = None
            return None
        tid = queue.pop(0)
        thread = self.threads[tid]
        if migrated:
            self.migrations += 1
        thread.state = ThreadState.RUNNING
        thread.last_cpu = cpu
        thread.quantum_deadline = now + self.config.quantum_ns
        self.current[cpu] = tid
        self.dispatches += 1
        if self.trace_enabled:
            self.trace.append(ScheduleEvent(time_ns=now, cpu=cpu, tid=tid))
        if self._probe is not None:
            self._probe(now, cpu, tid)
        return thread

    def _most_loaded_queue(self, thief: int) -> int | None:
        """Index of the longest non-empty run queue, deterministically."""
        best = None
        best_len = 0
        for cpu in self._cpu_scan_order(thief):
            length = len(self.run_queues[cpu])
            if length > best_len:
                best = cpu
                best_len = length
        return best

    def preempt(self, cpu: int, thread: SimThread) -> None:
        """Quantum expiry: move the running thread to its queue's tail."""
        cpu %= self.n_cpus
        if self.current[cpu] != thread.tid:
            raise ValueError(f"thread {thread.tid} is not running on cpu {cpu}")
        self.current[cpu] = None
        thread.state = ThreadState.READY
        thread.stats.context_switches += 1
        self.run_queues[cpu].append(thread.tid)

    def block(self, cpu: int, thread: SimThread, state: ThreadState) -> None:
        """The running thread blocks; the CPU becomes free to dispatch."""
        cpu %= self.n_cpus
        if self.current[cpu] != thread.tid:
            raise ValueError(f"thread {thread.tid} is not running on cpu {cpu}")
        self.current[cpu] = None
        thread.state = state
        thread.stats.context_switches += 1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpointable scheduler state (threads snapshot separately)."""
        return {
            "run_queues": [list(queue) for queue in self.run_queues],
            "current": list(self.current),
            "dispatches": self.dispatches,
            "migrations": self.migrations,
        }

    def restore_state(self, state: dict) -> None:
        """Restore from a :meth:`snapshot` value."""
        self.run_queues = [list(queue) for queue in state["run_queues"]]
        self.current = list(state["current"])
        self.dispatches = state["dispatches"]
        self.migrations = state["migrations"]
        self.trace = []
