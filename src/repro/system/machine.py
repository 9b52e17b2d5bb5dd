"""The target machine: an event-driven 16-node multiprocessor.

:class:`Machine` binds the substrates together and runs the event loop.
Two event kinds drive everything:

- ``EV_CORE`` (payload: cpu) -- the CPU is ready to execute at the event
  time.  The handler dispatches a thread if needed and runs it for a
  bounded *slice* (so cross-CPU interleaving stays fine-grained),
  consuming workload operations and converting them to time through the
  core model and the memory hierarchy.
- ``EV_READY`` (payload: tid) -- a thread wakes (I/O done, lock granted,
  barrier released) and is placed on a run queue; an idle CPU is kicked.

Operations are executed by per-opcode handlers reached through
``self._dispatch``, a table indexed by the integer opcodes of
:mod:`repro.isa` whose entries are plain functions called with the
machine as first argument (not bound methods: a table of those would be
a reference cycle through the machine, and a dropped machine -- one per
seed, per sampling pass -- would wait for the cycle collector instead of
being freed on the spot).  Each handler returns the advanced ``now``, or ``-1``
when the slice ended inside the handler (the thread blocked, yielded,
finished, or hit the transaction target) -- in that case the handler has
already done the time accounting and scheduled the follow-up events.
The dispatch table is also the instrumentation seam: attaching a
:class:`repro.probes.ProbeBus` with op callbacks swaps the table entries
for wrapping closures, so a machine with no probes attached runs the
exact unwrapped hot path (instrumentation is compiled out, not checked
per op).

Everything is deterministic: the event queue breaks ties FIFO, scheduler
scans are ordered, and all workload content is counter-based.  The only
cross-run variation enters through the memory hierarchy's perturbation
stream, exactly as in the paper's methodology (section 3.3).
"""

from __future__ import annotations

import copy

from repro.config import SystemConfig
from repro.isa import (
    N_OPCODES,
    OP_BARRIER,
    OP_CPU,
    OP_IO,
    OP_LOCK,
    OP_MEM,
    OP_TXN_BEGIN,
    OP_TXN_END,
    OP_UNLOCK,
    OP_YIELD,
    op_name,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.osmodel.locks import LockTable
from repro.osmodel.scheduler import Scheduler
from repro.osmodel.thread import SimThread, ThreadState
from repro.proc import make_core
from repro.proc.base import INSTRUCTIONS_PER_BRANCH
from repro.proc.simple import SimpleCore
from repro.sim.events import EV_CORE, EV_READY, EventQueue, SimulationClock
from repro.sim.rng import stream_seed
from repro.workloads.base import (
    Workload,
    WorkloadClock,
    export_stream_memo,
    merge_stream_memo,
)

#: default maximum uninterrupted execution per core event (overridable
#: via OSConfig.interleave_ns), keeping cross-CPU interleaving
#: fine-grained relative to transaction lengths
INTERLEAVE_NS = 2_000

#: sentinel quantum deadline when preemption is impossible this slice
_NEVER = 1 << 62


class SimulationStall(Exception):
    """Raised when the event queue drains while threads are still blocked
    (a deadlock in the workload/OS interaction -- always a bug)."""


def check_warmup_mode(mode: str) -> None:
    """Reject a warm-up mode :meth:`Machine.advance_to_transactions` cannot
    execute (callers with work to lose call this before starting it)."""
    if mode not in ("timed", "functional"):
        raise ValueError(f"unknown warm-up mode {mode!r}")


class Machine:
    """A configured target system executing one workload."""

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        *,
        build_threads: bool = True,
    ) -> None:
        self.config = config
        self.workload = workload
        self.clock = SimulationClock()
        self.events = EventQueue()
        self.hierarchy = MemoryHierarchy(config)
        self.cores = [make_core(config, i) for i in range(config.n_cpus)]
        self.scheduler = Scheduler(config.os, config.n_cpus)
        self.locks = LockTable()
        self.workload_clock = WorkloadClock()
        self.completed_transactions = 0
        self.live_threads = 0
        self.timed_out = False
        #: events processed by :meth:`run_until_transactions` (perf metric)
        self.events_processed = 0
        #: optional (time_ns, txn_type) log of completions for windowing
        self.transaction_log: list[tuple[int, int]] | None = None
        #: the attached ProbeBus, if any (see :meth:`attach_probes`)
        self.probes = None
        self._probe_lock = None
        self._probe_txn = None
        self._idle_cpus: set[int] = set()
        self._target: int | None = None
        self._target_time: int | None = None
        self._build_dispatch()
        if build_threads:
            self._build_threads()
            self._boot()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_threads(self) -> None:
        n_threads = self.workload.n_threads(self.config.n_cpus)
        for tid in range(n_threads):
            program = self.workload.make_program(tid, self.workload_clock)
            bind_memo = getattr(self.workload, "bind_stream_memo", None)
            if bind_memo is not None:
                bind_memo(program)
            thread = SimThread(
                tid=tid,
                name=f"{self.workload.name}-{tid}",
                program=program,
                branch_ctx=self.workload.make_branch_context(tid),
                last_cpu=tid % self.config.n_cpus,
            )
            self.scheduler.add_thread(thread)
        self.live_threads = n_threads

    def _boot(self) -> None:
        for cpu in range(self.config.n_cpus):
            self.events.schedule(0, EV_CORE, cpu)

    def _build_dispatch(self) -> None:
        """(Re)build the opcode -> bound-handler dispatch table.

        When every core is exactly the blocking :class:`SimpleCore`
        (whose stall hooks are identity functions), the mem/cpu entries
        use specialized closure handlers with the core model inlined and
        the hierarchy's ``access`` pre-bound -- several attribute loads
        and method calls fewer per memory op, zero behaviour difference.
        A core-model subclass gets the generic handlers.  The closures
        are created once and cached so detach_probes restores the exact
        same table entries.
        """
        simple = all(type(core) is SimpleCore for core in self.cores)
        if simple and getattr(self, "_simple_handlers", None) is None:
            self._simple_handlers = self._make_simple_handlers()
        cls = type(self)
        table: list = [None] * N_OPCODES
        if simple:
            table[OP_CPU], table[OP_MEM] = self._simple_handlers
        else:
            table[OP_CPU] = cls._op_cpu
            table[OP_MEM] = cls._op_mem
        table[OP_LOCK] = cls._op_lock
        table[OP_UNLOCK] = cls._op_unlock
        table[OP_IO] = cls._op_io
        table[OP_BARRIER] = cls._op_barrier
        table[OP_TXN_BEGIN] = cls._op_txn_begin
        table[OP_TXN_END] = cls._op_txn_end
        table[OP_YIELD] = cls._op_yield
        self._dispatch = table

    # ------------------------------------------------------------------
    # Instrumentation (the probe bus)
    # ------------------------------------------------------------------
    def attach_probes(self, bus) -> None:
        """Attach a :class:`repro.probes.ProbeBus` to this machine.

        Hook points with no registered callbacks cost nothing: the op
        hook is installed by wrapping dispatch-table entries (so the
        unprobed table keeps the raw handlers), and the remaining hooks
        are ``None``-checked only on cold paths (lock block/hand-off,
        transaction completion, L2-miss transactions, dispatches).
        """
        self.detach_probes()
        self.probes = bus
        op_cbs = bus.callbacks("op")
        if op_cbs:
            self._dispatch = [
                self._wrap_op_handler(handler, op_cbs) for handler in self._dispatch
            ]
        self._probe_lock = bus.merged("lock")
        self._probe_txn = bus.merged("txn")
        self.hierarchy.set_cache_probe(bus.merged("cache"))
        self.scheduler.set_probe(bus.merged("sched"))

    def detach_probes(self) -> None:
        """Remove any attached probe bus and restore the raw hot path."""
        self.probes = None
        self._probe_lock = None
        self._probe_txn = None
        self._build_dispatch()
        self.hierarchy.set_cache_probe(None)
        self.scheduler.set_probe(None)

    @staticmethod
    def _wrap_op_handler(handler, callbacks):
        """Wrap one dispatch entry so op callbacks fire per dispatched op."""

        def dispatched(machine, cpu, thread, op, now, start, _handler=handler, _cbs=tuple(callbacks)):
            for cb in _cbs:
                cb(now, cpu, thread.tid, op)
            return _handler(machine, cpu, thread, op, now, start)

        return dispatched

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run_until_transactions(self, total: int, max_time_ns: int) -> int:
        """Process events until ``completed_transactions`` reaches
        ``total`` machine-lifetime transactions (or time/work runs out).

        Returns the time the target transaction completed.  The global
        clock itself is not forced to that time: the target completes
        mid-slice, while events older than it are still pending, and they
        must remain processable by a subsequent call.
        """
        if self.completed_transactions >= total:
            return self.clock.now
        self._target = total
        self._target_time = None
        events = self.events
        clock = self.clock
        handle_core = self._handle_core
        handle_ready = self._handle_ready
        while self._target_time is None:
            event = events.pop()
            if event is None:
                if self.live_threads > 0:
                    states = {
                        t.tid: t.state.value for t in self.scheduler.threads.values()
                        if t.state is not ThreadState.FINISHED
                    }
                    raise SimulationStall(
                        f"event queue drained with {self.live_threads} live "
                        f"threads; states: {states}"
                    )
                break  # all threads finished before reaching the target
            time = event[0]
            if time > max_time_ns:
                self.timed_out = True
                break
            clock.advance_to(time)
            self.events_processed += 1
            kind = event[2]
            if kind == EV_CORE:
                handle_core(event[3], time)
            elif kind == EV_READY:
                handle_ready(event[3], time)
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        completion = self._target_time if self._target_time is not None else self.clock.now
        self._target = None
        self._target_time = None
        return completion

    def fast_forward_transactions(self, total: int, max_time_ns: int) -> int:
        """Functionally fast-forward to ``total`` machine-lifetime
        transactions: full architectural state transitions, no timing
        model (see :mod:`repro.core.ffwd`).  Same contract as
        :meth:`run_until_transactions`; afterwards the machine can be
        checkpointed or continued under the timed event loop.
        """
        from repro.core.ffwd import fast_forward_transactions

        return fast_forward_transactions(self, total, max_time_ns=max_time_ns)

    def advance_to_transactions(self, total: int, max_time_ns: int, mode: str) -> int:
        """Reach ``total`` machine-lifetime transactions the way a warm-up
        leg or an inter-window skip does: under the event loop
        (``mode="timed"``, :meth:`run_until_transactions`) or the
        functional engine (``"functional"``,
        :meth:`fast_forward_transactions`).  Same contract as either.
        """
        check_warmup_mode(mode)
        if mode == "functional":
            return self.fast_forward_transactions(total, max_time_ns=max_time_ns)
        return self.run_until_transactions(total, max_time_ns=max_time_ns)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_ready(self, tid: int, now: int) -> None:
        thread = self.scheduler.threads[tid]
        if thread.state in (ThreadState.READY, ThreadState.RUNNING, ThreadState.FINISHED):
            return  # stale wakeup
        target_cpu = self.scheduler.make_ready(thread)
        if target_cpu in self._idle_cpus:
            self._idle_cpus.discard(target_cpu)
            self.events.schedule(now, EV_CORE, target_cpu)

    def _handle_core(self, cpu: int, now: int) -> None:
        current_tid = self.scheduler.current[cpu]
        if current_tid is None:
            thread = self.scheduler.pick_next(cpu, now)
            if thread is None:
                self._idle_cpus.add(cpu)
                return
            now += self.config.os.context_switch_ns
        else:
            thread = self.scheduler.threads[current_tid]
        self._run_slice(cpu, thread, now)

    def _run_slice(self, cpu: int, thread: SimThread, now: int) -> None:
        """Execute the thread on ``cpu`` until it blocks, is preempted, the
        interleave slice expires, or the transaction target is reached.

        The loop body is deliberately minimal: fetch the next op from the
        thread's buffer and dispatch it through the opcode-indexed table.
        Everything op-specific lives in the ``_op_*`` handler methods.
        """
        os_cfg = self.config.os
        slice_end = now + (os_cfg.interleave_ns or INTERLEAVE_NS)
        start = now
        dispatch = self._dispatch
        # The scheduler mutates this queue in place, so the reference
        # stays valid for the whole slice.
        run_queue = self.scheduler.run_queues[cpu]
        schedule = self.events.schedule
        # Quantum expiry preempts only if someone is waiting locally.
        # Both the deadline (set in pick_next) and the run queue (fed by
        # EV_READY handlers, never mid-slice) are frozen while the slice
        # runs, so the per-op check is one compare against a local.
        deadline = thread.quantum_deadline if run_queue else _NEVER

        while True:
            if now >= deadline:
                thread.stats.cpu_time_ns += now - start
                self.scheduler.preempt(cpu, thread)
                schedule(now + os_cfg.context_switch_ns, EV_CORE, cpu)
                return

            buf = thread.op_buffer
            i = thread.op_index
            if i >= len(buf):
                if not thread.refill():
                    self._finish_thread(cpu, thread, now, start)
                    return
                buf = thread.op_buffer
                i = 0

            op = buf[i]
            now = dispatch[op[0]](self, cpu, thread, op, now, start)
            if now < 0:
                return  # the handler ended the slice (block/yield/target)

            if now >= slice_end:
                thread.stats.cpu_time_ns += now - start
                schedule(now, EV_CORE, cpu)
                return

    # ------------------------------------------------------------------
    # Op handlers (dispatch-table targets)
    #
    # Signature: (machine, cpu, thread, op, now, start) -> new ``now``, or -1 when
    # the handler ended the slice (having accounted cpu_time and
    # scheduled follow-ups itself).  Handlers consume their op by
    # advancing ``thread.op_index`` -- except the lock handler on the
    # blocking path, where the woken thread must re-execute the acquire.
    # ------------------------------------------------------------------
    def _op_mem(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        core = self.cores[cpu]
        if op[2]:
            latency, source = self.hierarchy.access(cpu, op[1], True, now)
            now += core.store_stall(latency, source)
        else:
            latency, source = self.hierarchy.access(cpu, op[1], False, now)
            now += core.load_stall(latency, source)
        thread.op_index += 1
        return now

    def _make_simple_handlers(self) -> tuple:
        """Build the (cpu, mem) closure handlers for all-SimpleCore
        machines.  ``self.hierarchy`` and ``self.cores`` are assigned
        once in ``__init__`` (restore mutates them in place), so binding
        them here is safe for the machine's lifetime."""
        access = self.hierarchy.access
        cores = self.cores
        per_branch = INSTRUCTIONS_PER_BRANCH

        def op_mem_simple(_machine, cpu, thread, op, now, start):
            """:meth:`_op_mem` with SimpleCore inlined (full-latency stalls)."""
            if op[2]:
                now += access(cpu, op[1], True, now)[0]
            else:
                now += access(cpu, op[1], False, now)[0]
            thread.op_index += 1
            return now

        def op_cpu_simple(_machine, cpu, thread, op, now, start):
            """:meth:`_op_cpu` with SimpleCore inlined: IPC = 1, blocking
            fetch, and the branch counter advancing exactly as
            ``SimpleCore.instruction_time`` does."""
            n = op[1]
            cores[cpu].instructions_retired += n
            thread.branch_ctx.counter += n // per_branch
            now += n
            now += access(cpu, op[2], False, now, True)[0]
            thread.stats.instructions += n
            thread.op_index += 1
            return now

        return (op_cpu_simple, op_mem_simple)

    def _op_cpu(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        core = self.cores[cpu]
        now += core.instruction_time(op[1], thread.branch_ctx)
        latency, source = self.hierarchy.access(cpu, op[2], False, now, True)
        now += core.fetch_stall(latency, source)
        thread.stats.instructions += op[1]
        thread.op_index += 1
        return now

    def _op_lock(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        mutex = self.locks.mutex(op[1])
        # The test&set is a store to the lock word: coherence traffic
        # that ping-pongs the line between contenders.
        now += self.hierarchy.access(cpu, mutex.address, True, now)[0]
        if mutex.try_acquire(thread.tid):
            thread.blocked_on_lock = None
            thread.op_index += 1
            return now
        # Adaptive mutex: spin briefly, then block.  The op is NOT
        # consumed -- the woken thread re-executes the acquire and may
        # find the lock stolen by a barger.
        os_cfg = self.config.os
        now += os_cfg.spin_before_block_ns
        mutex.enqueue_waiter(thread.tid)
        thread.blocked_on_lock = mutex.lock_id
        thread.stats.lock_blocks += 1
        thread.stats.cpu_time_ns += now - start
        if self._probe_lock is not None:
            self._probe_lock("block", now, thread.tid, mutex.lock_id)
        self.scheduler.block(cpu, thread, ThreadState.BLOCKED_LOCK)
        self.events.schedule(now + os_cfg.context_switch_ns, EV_CORE, cpu)
        return -1

    def _op_unlock(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        mutex = self.locks.mutex(op[1])
        now += self.hierarchy.access(cpu, mutex.address, True, now)[0]
        next_tid = mutex.release(thread.tid)
        thread.op_index += 1
        if next_tid is not None:
            # The woken waiter races any barging acquirer that arrives
            # during the wake-up latency window.
            if self._probe_lock is not None:
                self._probe_lock("handoff", now, next_tid, mutex.lock_id)
            self.events.schedule(
                now + self.config.os.wakeup_latency_ns, EV_READY, next_tid
            )
        return now

    def _op_io(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        thread.op_index += 1
        thread.stats.cpu_time_ns += now - start
        self.scheduler.block(cpu, thread, ThreadState.BLOCKED_IO)
        self.events.schedule(now + op[1], EV_READY, thread.tid)
        self.events.schedule(now + self.config.os.context_switch_ns, EV_CORE, cpu)
        return -1

    def _op_barrier(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        barrier = self.locks.barrier(op[1], op[2])
        thread.op_index += 1
        released = barrier.arrive(thread.tid)
        if released is None:
            thread.stats.cpu_time_ns += now - start
            self.scheduler.block(cpu, thread, ThreadState.BLOCKED_BARRIER)
            self.events.schedule(
                now + self.config.os.context_switch_ns, EV_CORE, cpu
            )
            return -1
        wakeup = now + self.config.os.wakeup_latency_ns
        for other in released:
            if other != thread.tid:
                self.events.schedule(wakeup, EV_READY, other)
        return now

    def _op_txn_begin(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        thread.op_index += 1
        return now

    def _op_txn_end(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        thread.op_index += 1
        self.completed_transactions += 1
        self.workload_clock.total_transactions += 1
        thread.stats.transactions += 1
        if self.transaction_log is not None:
            self.transaction_log.append((now, op[1]))
        if self._probe_txn is not None:
            self._probe_txn(now, thread.tid, op[1])
        if self._target is not None and self.completed_transactions >= self._target:
            self._target_time = now
            thread.stats.cpu_time_ns += now - start
            # Leave the thread running; a resumed simulation continues
            # from this exact state.
            self.events.schedule(now, EV_CORE, cpu)
            return -1
        return now

    def _op_yield(self, cpu: int, thread: SimThread, op, now: int, start: int) -> int:
        thread.op_index += 1
        thread.stats.cpu_time_ns += now - start
        self.scheduler.preempt(cpu, thread)
        self.events.schedule(now + self.config.os.context_switch_ns, EV_CORE, cpu)
        return -1

    def _finish_thread(self, cpu: int, thread: SimThread, now: int, start: int) -> None:
        thread.stats.cpu_time_ns += now - start
        self.scheduler.block(cpu, thread, ThreadState.FINISHED)
        self.live_threads -= 1
        self.events.schedule(
            now + self.config.os.context_switch_ns, EV_CORE, cpu
        )

    # ------------------------------------------------------------------
    # Cloning (warm-state fan-out) and whole-machine serialisation
    # ------------------------------------------------------------------
    def clone(self) -> "Machine":
        """An independent machine in this machine's checkpointable state.

        What ``Checkpoint.capture(self).materialize(self.config)`` builds,
        at a fraction of the cost: the memory system -- nearly all of a
        warm machine's state -- is copied table by table at C speed
        (:meth:`MemoryHierarchy.copy_state_from`; lines and directory
        entries are ints, so nothing stays shared), and the small
        remainder (threads, programs, scheduler, locks, cores, event
        heap) goes through the same snapshot/restore code a checkpoint
        uses, against a fresh copy of the workload instance.  Cloning a
        quiesced pristine machine once per seed is how the fan-out engine
        and the live sampler start every run from one set of initial
        conditions.

        Probes must be detached first (their callbacks are arbitrary
        callables; attach them to the clone instead).
        """
        if self.probes is not None:
            raise ValueError("detach probes before cloning a machine")
        machine = self._restore_sans_memory(
            self.config, copy.copy(self.workload), self._snapshot(None)
        )
        machine.hierarchy.copy_state_from(self.hierarchy)
        return machine

    def freeze(self) -> bytes:
        """Serialize this whole machine (a pickle of everything except
        the dispatch table, whose closures are process-local and are
        rebuilt by :meth:`thaw`).

        No simulation path calls this: per-seed copies are
        :meth:`clone`, persistent initial conditions are a
        :class:`~repro.system.checkpoint.Checkpoint`.  Probes must be
        detached first.  The bytes also carry the process's memoized
        transaction streams for this workload
        (:mod:`repro.workloads.base`), ~0.8 MB on a warm study machine,
        which :meth:`thaw` re-merges on every call.
        """
        if self.probes is not None:
            raise ValueError("detach probes before freezing a machine")
        state = {
            key: value
            for key, value in self.__dict__.items()
            if key not in ("_dispatch", "_simple_handlers")
        }
        state["_stream_memo"] = export_stream_memo(self.workload.stream_key())
        import pickle

        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def thaw(cls, template: bytes) -> "Machine":
        """Materialize an independent machine from a :meth:`freeze` template.

        Each call returns a fresh object graph (templates can be thawed
        any number of times); the dispatch table is rebuilt so its
        closures bind the new machine, not the frozen one.
        """
        import pickle

        state = pickle.loads(template)
        memo = state.pop("_stream_memo", None)
        if memo:
            merge_stream_memo(memo)
        machine = cls.__new__(cls)
        machine.__dict__.update(state)
        # Programs pickle without their memo bucket (it is process-local
        # shared state); rebind against this process's registry.
        bind_memo = getattr(machine.workload, "bind_stream_memo", None)
        if bind_memo is not None:
            for thread in machine.scheduler.threads.values():
                bind_memo(thread.program)
        machine._simple_handlers = None
        machine._build_dispatch()
        return machine

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the full machine state (paper 3.2.2: registers, memory,
        disks and outstanding interrupts; here: threads, programs, caches,
        locks, scheduler, and in-flight events)."""
        return self._snapshot(self.hierarchy.snapshot())

    def _snapshot(self, hierarchy_state: dict | None) -> dict:
        return {
            "clock": self.clock.snapshot(),
            "events": self.events.snapshot(),
            "scheduler": self.scheduler.snapshot(),
            "threads": {
                tid: thread.snapshot()
                for tid, thread in self.scheduler.threads.items()
            },
            "locks": self.locks.snapshot(),
            "hierarchy": hierarchy_state,
            "cores": [core.snapshot() for core in self.cores],
            "workload_clock": self.workload_clock.snapshot(),
            "completed_transactions": self.completed_transactions,
            "live_threads": self.live_threads,
            "idle_cpus": sorted(self._idle_cpus),
            "processor_model": self.config.processor.model,
            "cache_geometry": (
                self.config.l1i,
                self.config.l1d,
                self.config.l2,
            ),
            "coherence_protocol": self.config.coherence_protocol,
        }

    @classmethod
    def from_snapshot(
        cls, config: SystemConfig, workload: Workload, state: dict
    ) -> "Machine":
        """Rebuild a machine from a snapshot, possibly under a *different*
        system configuration (the paper restores one checkpoint into many
        timing configurations).

        When cache geometry differs, cache contents are replayed into the
        new geometry in LRU order (overflow dropped -- equivalent to
        warming the new cache with the checkpoint's resident set) and the
        coherence directory is rebuilt.  When the processor model differs,
        cores start cold.
        """
        machine = cls._restore_sans_memory(config, workload, state)
        # Memory system: exact restore when geometry and protocol match,
        # else replay contents into the new shape/state space.
        same_memory_model = state["cache_geometry"] == (
            config.l1i,
            config.l1d,
            config.l2,
        ) and state["coherence_protocol"] == config.coherence_protocol
        if same_memory_model:
            machine.hierarchy.restore_state(state["hierarchy"])
        else:
            _replay_caches(machine.hierarchy, state["hierarchy"], config)
        return machine

    @classmethod
    def _restore_sans_memory(
        cls, config: SystemConfig, workload: Workload, state: dict
    ) -> "Machine":
        """Everything of :meth:`from_snapshot` but the memory hierarchy,
        which is left as constructed (cold)."""
        machine = cls(config, workload, build_threads=False)
        machine.clock = SimulationClock.restore(state["clock"])
        machine.events = EventQueue.restore(state["events"])
        machine.workload_clock.restore_state(state["workload_clock"])
        machine.completed_transactions = state["completed_transactions"]
        machine.live_threads = state["live_threads"]
        machine._idle_cpus = set(state["idle_cpus"])
        # Threads and their programs.
        n_threads = workload.n_threads(config.n_cpus)
        thread_states = state["threads"]
        if len(thread_states) != n_threads:
            raise ValueError(
                f"checkpoint has {len(thread_states)} threads, workload "
                f"needs {n_threads}"
            )
        for tid in range(n_threads):
            program = workload.make_program(tid, machine.workload_clock)
            bind_memo = getattr(workload, "bind_stream_memo", None)
            if bind_memo is not None:
                bind_memo(program)
            thread = SimThread(
                tid=tid,
                name=f"{workload.name}-{tid}",
                program=program,
                branch_ctx=workload.make_branch_context(tid),
            )
            machine.scheduler.threads[tid] = thread
            thread.restore_from(thread_states[tid])
        machine.scheduler.restore_state(state["scheduler"])
        machine.locks.restore_state(state["locks"])
        # Cores: exact restore only for the same processor model.
        if state["processor_model"] == config.processor.model:
            for core, core_state in zip(machine.cores, state["cores"]):
                core.restore_state(core_state)
        return machine


def _replay_caches(hierarchy: MemoryHierarchy, state: dict, config: SystemConfig) -> None:
    """Warm a differently-shaped hierarchy from checkpointed contents.

    L2 contents are re-inserted in LRU order (evictions fall where the new
    geometry puts them); the directory is rebuilt from surviving L2 lines;
    L1s restart cold (they refill within microseconds).  States foreign to
    the target protocol are demoted to legal equivalents (E -> S clean;
    O -> S with an implied writeback when the target lacks Owned).
    """
    from repro.memory.coherence import MOSIState, transitions_for

    target_table = transitions_for(config.coherence_protocol)
    legal_states = {key[0].value for key in target_table}

    for node, cache_state in enumerate(state["l2"]):
        cache = hierarchy.l2[node]
        for _index, lines in sorted(cache_state["sets"].items()):
            for block, line_state, dirty in lines:
                # Skip transient states (there are none between events, but
                # be safe) and duplicates created by set-mapping changes.
                if cache.peek(block) is not None:
                    continue
                if line_state not in legal_states:
                    # Demote to Shared; the data's home becomes memory
                    # (an O copy's dirty data is treated as flushed).
                    line_state, dirty = MOSIState.S.value, False
                victim = cache.insert(block, line_state, dirty=dirty)
                del victim  # dropped: replay is warming, not coherence
    # Rebuild the directory from what survived, using the target
    # protocol's owner-state set (E owns under MESI/MOESI).
    hierarchy.rebuild_directory()
    hierarchy.crossbar.restore_state(state["crossbar"])
    hierarchy.dram.restore_state(state["dram"])
