"""Functional fast-forward: timing-free execution of the warm-up region.

The paper's methodology multiplies every experiment by (warm-up +
measurement) per seed, and warm-up dominates: all that survives into a
checkpoint is *architectural* state -- cache/directory contents, lock
ownership, scheduler queues, thread program positions -- yet the timed
engine pays full event scheduling, interconnect/DRAM occupancy math and
per-op latency accounting to build it.  :func:`fast_forward_transactions`
executes the same workload operations through the same state-transition
code -- literally: ``MemoryHierarchy.access_functional`` is
``access(..., timed=False)``, one set of miss legs -- plus the real
``Scheduler`` and ``LockTable``, while skipping everything that only
produces *time*:

==========================  ========================================
kept (state)                dropped (timing)
==========================  ========================================
L1/L2 contents, LRU order   per-access latency, core stall models
coherence/directory state   crossbar + DRAM occupancy, busy windows
lock holders/waiter FIFOs   perturbation draws (stream untouched)
scheduler queues, quanta    event-queue scheduling, context-switch
thread op positions, stats    and wake-up latency charging
==========================  ========================================

Time still advances -- on a fixed *functional clock* that steps one
interleave slice per round-robin sweep of the CPUs, with instruction
batches charging their nominal IPC=1 time inside a slice -- so quantum
deadlines expire, the scheduler preempts and balances, lock hand-offs
and I/O completions are ordered through a wake-up heap, and transaction
timestamps remain monotone.  The interleaving is *an* admissible one,
not the timed one: with >1 CPU, global-stream workloads (ticket order)
legitimately diverge from any particular timed run, exactly as two
timed runs with different perturbation seeds diverge.  At one CPU the
op stream is timing-independent and functional execution touches
byte-identical cache/lock state (enforced by
``repro.verify.differential.check_functional_warmup_agreement``).

On exit the machine is *re-armed* for the timed engine: the clock is
advanced to the functional time, every CPU gets an ``EV_CORE`` kick and
pending wake-ups are re-scheduled as ``EV_READY`` events (clamped to
the final time so the clock never runs backwards).  A fast-forwarded
machine can therefore be checkpointed (``Checkpoint.capture``) or
continued directly under ``run_until_transactions`` -- which is what
the one timed-window loop of sampled measurement,
:func:`repro.core.sampling.timed_windows`, does between its windows.

What stays cold: the OOO model's branch-predictor tables (the branch
*stream* counter advances identically, so the stream itself is in the
same place) and the DRAM/crossbar occupancy windows.  Both are
transient micro-state that re-warms within microseconds of timed
execution -- the same trade ``Machine.from_snapshot`` makes when it
replays caches into a new geometry and leaves the L1s cold.

Probe-bus compatibility: cache probes fire per functional coherence
transaction (latency 0), lock probes fire on block/hand-off, sched
probes fire per dispatch.  Op and txn hooks fire for transaction
completions only in the timed engine's dispatch table; the functional
loop fires txn probes itself but bypasses the dispatch table, so *op*
hooks do not fire (documented; the verify checkers that consume op
events are not meaningful in functional mode -- see DESIGN.md section 9).
The cache/lock/txn hooks staying live is what the live sampler's survey
pass is built on: :mod:`repro.core.livesample` fast-forwards across the
measured region with a
:class:`~repro.probes.collectors.PhaseSignatureProbe` attached and gets
per-interval behaviour signatures for free -- phase detection without a
timing model.
"""

from __future__ import annotations

import heapq

from repro.isa import (
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
from repro.memory.hierarchy import L1_RW_CODE as _RW
from repro.osmodel.thread import ThreadState
from repro.sim.events import EV_CORE, EV_READY

#: states in which an EV_READY-equivalent wakeup is stale (mirrors
#: Machine._handle_ready)
_WAKE_STALE = (ThreadState.READY, ThreadState.RUNNING, ThreadState.FINISHED)


def fast_forward_transactions(machine, total: int, *, max_time_ns: int) -> int:
    """Drive ``machine`` to ``total`` machine-lifetime transactions
    functionally (see module docstring).  Returns the functional time at
    which the target completed; the machine is left re-armed for the
    timed event loop.  Mirrors ``run_until_transactions`` semantics:
    ``total`` is absolute, a drained system with live threads raises
    ``SimulationStall``, exceeding ``max_time_ns`` sets ``timed_out``.
    """
    from repro.system.machine import INTERLEAVE_NS, SimulationStall, _NEVER

    if machine.completed_transactions >= total:
        return machine.clock.now

    config = machine.config
    os_cfg = config.os
    interleave = os_cfg.interleave_ns or INTERLEAVE_NS
    quantum = os_cfg.quantum_ns
    wakeup_latency = os_cfg.wakeup_latency_ns
    spin_ns = os_cfg.spin_before_block_ns
    n_cpus = config.n_cpus

    scheduler = machine.scheduler
    threads = scheduler.threads
    run_queues = scheduler.run_queues
    current = scheduler.current
    pick_next = scheduler.pick_next
    hierarchy = machine.hierarchy
    access = hierarchy.access_functional
    locks = machine.locks
    cores = machine.cores
    events = machine.events
    workload_clock = machine.workload_clock
    txn_log = machine.transaction_log
    probe_lock = machine._probe_lock
    probe_txn = machine._probe_txn
    # L1-hit fast path locals (the hit path below is the same code
    # access_functional runs, inlined; misses and RO-write hits fall
    # back to the full access, which redoes the lookup from scratch).
    hstats = hierarchy.stats
    block_bytes = hierarchy._block_bytes
    l1i_caches = hierarchy.l1i
    l1d_caches = hierarchy.l1d

    # ------------------------------------------------------------------
    # Entry: absorb the pending event queue.  EV_CORE events are dropped
    # (every CPU is polled each functional round); EV_READY events move
    # to a local wake-up heap that preserves (time, FIFO) order.
    # ------------------------------------------------------------------
    wakeups: list[tuple[int, int, int]] = []
    seq = 0
    while True:
        event = events.pop()
        if event is None:
            break
        if event[2] == EV_READY:
            wakeups.append((event[0], seq, event[3]))
            seq += 1
    heapq.heapify(wakeups)

    now = machine.clock.now
    target_time: int | None = None
    timed_out = False
    while machine.completed_transactions < total:
        if now > max_time_ns:
            timed_out = True
            break
        # Release due wake-ups (stale ones are dropped, as in
        # _handle_ready; a woken thread is dispatched this round).
        while wakeups and wakeups[0][0] <= now:
            _wake_time, _s, tid = heapq.heappop(wakeups)
            thread = threads[tid]
            if thread.state in _WAKE_STALE:
                continue
            scheduler.make_ready(thread)

        did_work = False
        slice_end = now + interleave
        for cpu in range(n_cpus):
            tid = current[cpu]
            if tid is None:
                thread = pick_next(cpu, now)
                if thread is None:
                    continue
            else:
                thread = threads[tid]
            did_work = True

            # ---- one functional slice on this CPU -----------------
            local = now
            start = now
            stats = thread.stats
            run_queue = run_queues[cpu]
            # Quantum expiry preempts only if someone waits locally;
            # queues are frozen during the slice (wake-ups go to the
            # heap), mirroring _run_slice's hoisted deadline.
            deadline = thread.quantum_deadline if run_queue else _NEVER
            functional_advance = cores[cpu].functional_advance
            branch_ctx = thread.branch_ctx
            buf = thread.op_buffer
            i = thread.op_index
            buf_len = len(buf)
            l1i = l1i_caches[cpu]
            l1i_sets = l1i._sets
            l1i_n = l1i.n_sets
            l1i_stats = l1i.stats
            l1d = l1d_caches[cpu]
            l1d_sets = l1d._sets
            l1d_n = l1d.n_sets
            l1d_stats = l1d.stats
            while True:
                if local >= deadline:
                    thread.op_index = i
                    stats.cpu_time_ns += local - start
                    scheduler.preempt(cpu, thread)
                    break
                if i >= buf_len:
                    thread.op_index = i
                    if not thread.refill():
                        stats.cpu_time_ns += local - start
                        scheduler.block(cpu, thread, ThreadState.FINISHED)
                        machine.live_threads -= 1
                        break
                    buf = thread.op_buffer
                    buf_len = len(buf)
                    i = 0
                op = buf[i]
                code = op[0]
                if code == OP_MEM:
                    # Each data reference costs 1 ns on the
                    # functional clock: keeps slices finite for any
                    # op mix and keeps reference order sane.  The L1
                    # read-hit / RW-write-hit case is inlined
                    # (identical counters and MRU move); everything
                    # else takes the full functional access.
                    block = op[1] // block_bytes
                    lines = l1d_sets[block % l1d_n]
                    line = lines.get(block)
                    is_write = op[2]
                    if line is not None and (
                        not is_write or line >> 1 == _RW
                    ):
                        del lines[block]
                        lines[block] = line | 1 if is_write else line
                        l1d_stats.hits += 1
                        hstats.accesses += 1
                        hstats.l1_hits += 1
                    else:
                        access(cpu, op[1], is_write, local)
                    local += 1
                    i += 1
                elif code == OP_CPU:
                    n = op[1]
                    functional_advance(n, branch_ctx)
                    local += n
                    block = op[2] // block_bytes
                    lines = l1i_sets[block % l1i_n]
                    line = lines.get(block)
                    if line is not None:
                        del lines[block]
                        lines[block] = line
                        l1i_stats.hits += 1
                        hstats.accesses += 1
                        hstats.l1_hits += 1
                    else:
                        access(cpu, op[2], False, local, True)
                    stats.instructions += n
                    i += 1
                elif code == OP_TXN_BEGIN:
                    i += 1
                elif code == OP_TXN_END:
                    i += 1
                    machine.completed_transactions += 1
                    workload_clock.total_transactions += 1
                    stats.transactions += 1
                    if txn_log is not None:
                        txn_log.append((local, op[1]))
                    if probe_txn is not None:
                        probe_txn(local, thread.tid, op[1])
                    if machine.completed_transactions >= total:
                        thread.op_index = i
                        stats.cpu_time_ns += local - start
                        # Leave the thread RUNNING; finalization
                        # re-arms the CPU (mirrors _op_txn_end).
                        target_time = local
                        break
                elif code == OP_LOCK:
                    mutex = locks.mutex(op[1])
                    access(cpu, mutex.address, True, local)
                    local += 1
                    if mutex.try_acquire(thread.tid):
                        thread.blocked_on_lock = None
                        i += 1
                    else:
                        # Spin-then-block; op NOT consumed (the
                        # woken thread re-runs the acquire and may
                        # find the lock barged).
                        local += spin_ns
                        mutex.enqueue_waiter(thread.tid)
                        thread.blocked_on_lock = mutex.lock_id
                        stats.lock_blocks += 1
                        thread.op_index = i
                        stats.cpu_time_ns += local - start
                        if probe_lock is not None:
                            probe_lock("block", local, thread.tid, mutex.lock_id)
                        scheduler.block(cpu, thread, ThreadState.BLOCKED_LOCK)
                        break
                elif code == OP_UNLOCK:
                    mutex = locks.mutex(op[1])
                    access(cpu, mutex.address, True, local)
                    local += 1
                    next_tid = mutex.release(thread.tid)
                    i += 1
                    if next_tid is not None:
                        if probe_lock is not None:
                            probe_lock("handoff", local, next_tid, mutex.lock_id)
                        heapq.heappush(
                            wakeups, (local + wakeup_latency, seq, next_tid)
                        )
                        seq += 1
                elif code == OP_IO:
                    i += 1
                    thread.op_index = i
                    stats.cpu_time_ns += local - start
                    scheduler.block(cpu, thread, ThreadState.BLOCKED_IO)
                    heapq.heappush(wakeups, (local + op[1], seq, thread.tid))
                    seq += 1
                    break
                elif code == OP_BARRIER:
                    barrier = locks.barrier(op[1], op[2])
                    i += 1
                    released = barrier.arrive(thread.tid)
                    if released is None:
                        thread.op_index = i
                        stats.cpu_time_ns += local - start
                        scheduler.block(
                            cpu, thread, ThreadState.BLOCKED_BARRIER
                        )
                        break
                    wake = local + wakeup_latency
                    for other in released:
                        if other != thread.tid:
                            heapq.heappush(wakeups, (wake, seq, other))
                            seq += 1
                elif code == OP_YIELD:
                    i += 1
                    thread.op_index = i
                    stats.cpu_time_ns += local - start
                    scheduler.preempt(cpu, thread)
                    break
                else:
                    raise ValueError(f"unknown opcode {op_name(code)}")
                if local >= slice_end:
                    # Slice expired; the thread stays RUNNING and
                    # continues next round.
                    thread.op_index = i
                    stats.cpu_time_ns += local - start
                    break
            if target_time is not None:
                break
        if target_time is not None:
            break

        if not did_work:
            if wakeups:
                # Every CPU idle: jump the functional clock to the
                # next wake-up (entries still heaped are all > now).
                now = wakeups[0][0]
                continue
            if machine.live_threads > 0:
                states = {
                    t.tid: t.state.value
                    for t in threads.values()
                    if t.state is not ThreadState.FINISHED
                }
                raise SimulationStall(
                    f"functional fast-forward drained with "
                    f"{machine.live_threads} live threads; states: {states}"
                )
            break  # all threads finished before reaching the target
        now = slice_end

    # ------------------------------------------------------------------
    # Finalize: re-arm the timed event loop.  The clock advances to the
    # functional end time; every CPU gets a core kick there; leftover
    # wake-ups become EV_READY events clamped to the final time (the
    # clock cannot run backwards).
    # ------------------------------------------------------------------
    final_now = target_time if target_time is not None else now
    machine.clock.advance_to(final_now)
    machine._idle_cpus.clear()
    for cpu in range(n_cpus):
        events.schedule(final_now, EV_CORE, cpu)
    while wakeups:
        wake_time, _s, tid = heapq.heappop(wakeups)
        events.schedule(max(wake_time, final_now), EV_READY, tid)
    if timed_out:
        machine.timed_out = True
    return final_now
