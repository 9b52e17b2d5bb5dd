"""Kernel-visible threads.

A :class:`SimThread` carries everything the OS and the execution loop need:
scheduling state, the workload program that generates its operation
stream, a buffer of pending operations, and its branch-stream context.
All fields are plain data so a thread checkpoints by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.isa import encode_ops
from repro.proc.base import BranchContext


class ThreadState(str, Enum):
    """Scheduling states."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED_LOCK = "blocked_lock"
    BLOCKED_IO = "blocked_io"
    BLOCKED_BARRIER = "blocked_barrier"
    SLEEPING = "sleeping"
    FINISHED = "finished"

BLOCKED_STATES = (
    ThreadState.BLOCKED_LOCK,
    ThreadState.BLOCKED_IO,
    ThreadState.BLOCKED_BARRIER,
    ThreadState.SLEEPING,
)


@dataclass
class ThreadStats:
    """Per-thread accounting."""

    instructions: int = 0
    transactions: int = 0
    context_switches: int = 0
    lock_blocks: int = 0
    cpu_time_ns: int = 0


@dataclass
class SimThread:
    """One schedulable thread."""

    tid: int
    name: str
    program: object  # WorkloadProgram; duck-typed to avoid a cycle
    branch_ctx: BranchContext
    state: ThreadState = ThreadState.READY
    #: operations fetched from the program but not yet executed
    op_buffer: list = field(default_factory=list)
    op_index: int = 0
    #: CPU the thread last ran on (affinity hint)
    last_cpu: int = 0
    #: absolute time at which the current quantum expires
    quantum_deadline: int = 0
    #: lock id the thread is blocked on, if any
    blocked_on_lock: int | None = None
    #: lifetime count of ops fetched into the buffer (perf accounting)
    ops_fetched: int = 0
    stats: ThreadStats = field(default_factory=ThreadStats)

    def refill(self) -> bool:
        """Fetch the next operation segment from the program.

        Returns False when the program has finished (scientific workloads
        terminate; throughput workloads never do).  Scripted programs
        that emit string op kinds are translated to the integer op ISA
        here -- the one boundary that accepts them -- so the machine's
        dispatch table only ever sees opcodes.
        """
        ops = self.program.next_ops(self)
        if not ops:
            return False
        if type(ops[0][0]) is not int:
            ops = encode_ops(ops)
        self.op_buffer = ops
        self.op_index = 0
        self.ops_fetched += len(ops)
        return True

    def snapshot(self) -> dict:
        """Checkpointable thread state (program state is captured via the
        program's own snapshot)."""
        return {
            "tid": self.tid,
            "name": self.name,
            "state": self.state.value,
            "op_buffer": list(self.op_buffer),
            "op_index": self.op_index,
            "last_cpu": self.last_cpu,
            "quantum_deadline": self.quantum_deadline,
            "blocked_on_lock": self.blocked_on_lock,
            "ops_fetched": self.ops_fetched,
            "branch_ctx": self.branch_ctx.snapshot(),
            "program": self.program.snapshot(),
            "stats": (
                self.stats.instructions,
                self.stats.transactions,
                self.stats.context_switches,
                self.stats.lock_blocks,
                self.stats.cpu_time_ns,
            ),
        }

    def restore_from(self, state: dict) -> None:
        """Restore in place from a :meth:`snapshot` value."""
        self.state = ThreadState(state["state"])
        self.op_buffer = list(state["op_buffer"])
        self.op_index = state["op_index"]
        self.last_cpu = state["last_cpu"]
        self.quantum_deadline = state["quantum_deadline"]
        self.blocked_on_lock = state["blocked_on_lock"]
        self.ops_fetched = state["ops_fetched"]
        self.branch_ctx = BranchContext.restore(state["branch_ctx"])
        self.program.restore_state(state["program"])
        (
            self.stats.instructions,
            self.stats.transactions,
            self.stats.context_switches,
            self.stats.lock_blocks,
            self.stats.cpu_time_ns,
        ) = state["stats"]
