"""Workload program framework.

A workload is a factory of per-thread :class:`WorkloadProgram` objects.
Each program emits its operation stream one *transaction* at a time via
``next_ops``; the machine's execution loop consumes operations and turns
them into time.

Operations are plain tuples (cheap to create, trivially checkpointable)
whose first element is an integer opcode from :mod:`repro.isa`:

==============================  ==========================================
``(OP_CPU, n, code_addr)``      execute ``n`` instructions; one I-fetch
``(OP_MEM, addr, w)``           data reference (``w``: 1 = store, 0 = load)
``(OP_LOCK, lock_id)``          acquire a mutex (may block)
``(OP_UNLOCK, lock_id)``        release a mutex (may wake a waiter)
``(OP_IO, ns)``                 block for an I/O of the given duration
``(OP_BARRIER, id, n)``         barrier among ``n`` participants
``(OP_TXN_BEGIN, type_id)``     transaction start marker
``(OP_TXN_END, type_id)``       transaction completion (the measured unit)
``(OP_YIELD,)``                 voluntary yield to the scheduler
==============================  ==========================================

Legacy string kinds are translated at the boundary by
:meth:`repro.osmodel.thread.SimThread.refill` via
:func:`repro.isa.encode_ops`; the machine's dispatch table only ever
sees opcodes.

Programs see the shared :class:`WorkloadClock` (total transactions
completed machine-wide), which lets behaviour drift over the workload's
lifetime -- the paper's *time variability*.  Everything else a program
draws comes from counter-based hashes of (seed, tid, txn_index, op
index), so the content of a given logical transaction is identical in
every run; only its *timing context* differs.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from typing import Any

from repro.proc.base import BranchContext, _reset_branch_memo
from repro.sim.rng import _GAMMA, _MASK64, _MIX1, _MIX2, hash_extend, hash_u64, stream_seed

#: operations are plain tuples; this alias documents intent
Op = tuple


# ----------------------------------------------------------------------
# Transaction-stream memoization
# ----------------------------------------------------------------------
#
# A transaction's operation list is a pure function of (workload config,
# thread identity, txn_key, the workload-clock reads the builder makes,
# and the program's mutable extra state before the build) -- everything
# else is counter-based hashing.  Multi-pass methodologies regenerate
# those exact lists constantly: the live sampler's survey/pilot/extra
# passes replay the same region three times, the fidelity ladder re-runs
# a (config, workload, seed) triple at higher fidelity, and fan-out
# workers thawed from one frozen template regenerate identical warm-up
# streams per perturbation seed.  The memo below shares the built lists
# process-globally, keyed so that a hit is *provably* the list the
# builder would have produced:
#
#   registry key:  (program class, tid, Workload.stream_key())
#   entry key:     (txn_key, stream_token(), extra_state() before build)
#   entry value:   marshal.dumps((ops, extra_state() after build))
#
# ``stream_token()`` must cover every workload-clock read the builder
# makes (the base implementation returns the raw clock value -- always
# correct, least reuse; generators with integer-coarse or no clock reads
# override it).  Mutable generator state rides on the existing
# checkpoint contract: anything that affects future transactions must
# already round-trip through ``extra_state``/``restore_extra`` for
# checkpointing to work, so keying on the before-image and replaying the
# after-image reproduces the build's side effects exactly.  Consumers
# never mutate returned op lists (``SimThread.refill`` rebinds, the
# engines read by index), so one list may be shared by any number of
# machines in the process.
#
# The per-stream cap (in transactions) bounds footprint on long runs.

_MEMO_STREAM_CAP = 4096
_STREAM_MEMO: dict[tuple, dict] = {}


@dataclass
class StreamMemoStats:
    """Process-wide counters for the transaction-stream memo."""

    hits: int = 0
    misses: int = 0
    ops_reused: int = 0


_MEMO_STATS = StreamMemoStats()


def stream_memo_stats() -> StreamMemoStats:
    """The live process-wide memo counters (mutated in place)."""
    return _MEMO_STATS


def reset_stream_memo(reset_stats: bool = True) -> None:
    """Make the process memo-cold (tests; timed regions; long-lived
    campaign workers): drop all memoized streams and, with them, the
    out-of-order core's branch-batch memo (:mod:`repro.proc.base`).

    Buckets are emptied in place, not dropped from the registry: programs
    on live machines hold their bucket by reference, so they keep sharing
    it with every machine built after the reset.
    """
    for bucket in _STREAM_MEMO.values():
        bucket.clear()
    _reset_branch_memo(reset_stats)
    if reset_stats:
        _MEMO_STATS.hits = 0
        _MEMO_STATS.misses = 0
        _MEMO_STATS.ops_reused = 0


def export_stream_memo(stream_key: tuple | None = None) -> dict:
    """Memo contents for pickling into a frozen machine template.

    With ``stream_key`` given, only that workload's streams are exported
    (a frozen template should not drag along unrelated workloads).
    """
    if stream_key is None:
        return {key: dict(bucket) for key, bucket in _STREAM_MEMO.items()}
    return {
        key: dict(bucket)
        for key, bucket in _STREAM_MEMO.items()
        if key[2] == stream_key
    }


def merge_stream_memo(exported: dict) -> None:
    """Merge an :func:`export_stream_memo` payload into this process.

    Existing entries win (they are byte-identical by construction; not
    replacing them preserves list sharing with live op buffers).
    """
    for key, bucket in exported.items():
        mine = _STREAM_MEMO.setdefault(key, {})
        for entry_key, entry in bucket.items():
            if entry_key not in mine:
                mine[entry_key] = entry


@dataclass
class WorkloadClock:
    """Machine-global workload progress, shared by all programs.

    ``total_transactions`` counts every committed transaction since the
    workload started (including before any checkpoint), so programs can
    modulate behaviour over the workload lifetime.

    ``total_started`` is the *request stream* ticket counter: server
    workloads (OLTP, web) serve a shared stream of incoming requests, so
    a worker thread starting its next transaction takes the next ticket
    and the ticket determines the transaction's content.  Which thread
    gets which ticket depends on the execution interleaving -- this is
    how scheduling divergence changes what work actually runs, the
    amplification at the heart of space variability.  Warehouse-style
    workloads (SPECjbb) and static-partitioned scientific codes do not
    use tickets, which is why the paper finds them space-stable.
    """

    total_transactions: int = 0
    total_started: int = 0

    def take_ticket(self) -> int:
        """Claim the next request from the shared stream."""
        ticket = self.total_started
        self.total_started += 1
        return ticket

    def snapshot(self) -> tuple[int, int]:
        """Checkpointable clock state."""
        return (self.total_transactions, self.total_started)

    def restore_state(self, state) -> None:
        """Restore from a :meth:`snapshot` value (tolerates the pre-ticket
        single-counter form)."""
        if isinstance(state, tuple):
            self.total_transactions, self.total_started = state
        else:
            self.total_transactions = state
            self.total_started = state


class WorkloadProgram:
    """Base class for per-thread operation-stream generators.

    Subclasses implement :meth:`build_transaction`, returning the full
    operation list of the thread's next transaction.  The base class
    manages the transaction index and provides deterministic draw
    helpers.

    ``global_queue`` selects where transaction content comes from: True
    (server workloads) draws it from the machine-wide request-stream
    ticket, so content assignment to threads is interleaving-dependent;
    False (warehouse/scientific workloads) keys content on (thread,
    transaction index), making each thread's work stream fixed.
    """

    global_queue = True

    #: memo bucket for this (class, tid, workload-config) stream; bound
    #: by Workload.bind_stream_memo, None = memoization off
    _memo: dict | None = None

    def __init__(self, name: str, tid: int, seed: int, clock: WorkloadClock) -> None:
        self.name = name
        self.tid = tid
        self.seed = stream_seed(seed, name, tid)
        self.queue_seed = stream_seed(seed, name, "queue")
        self.clock = clock
        self.txn_index = 0
        self.txn_key = 0
        self.finished = False
        # Cached hash prefix for draw(): fold(seed, txn_key) is constant
        # within a transaction, so it is hashed once per transaction and
        # extended per draw.  _acc_key tracks which txn_key the cache is
        # for (None = not yet computed; txn_key may be assigned directly).
        self._acc = 0
        self._acc_key: int | None = None

    def __getstate__(self) -> dict:
        """Pickle without the memo bucket (process-local, shared, large);
        :meth:`repro.system.machine.Machine.thaw` rebinds it."""
        state = self.__dict__.copy()
        state.pop("_memo", None)
        return state

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def next_ops(self, thread: Any) -> list[Op]:
        """Return the next transaction's operations (empty when done)."""
        if self.finished:
            return []
        if self.global_queue:
            self.txn_key = self.clock.take_ticket()
        else:
            self.txn_key = self.txn_index
        memo = self._memo
        if memo is None:
            ops = self.build_transaction()
        else:
            ops = self._memo_fetch(memo, self.txn_key, self.build_transaction)
        self.txn_index += 1
        return ops

    def _memo_fetch(self, memo: dict, key, build) -> list[Op]:
        """Memoized ``build()``: return the cached op list when this
        logical transaction was built before (here or in a machine thawed
        into this process), replaying the build's extra-state after-image.

        ``key`` must determine the build together with ``stream_token()``
        and the extra-state before-image (base ``next_ops`` passes
        ``txn_key``; programs that override ``next_ops`` pass their own
        progress counter).  Callers guarantee returned sequences are
        never mutated.

        Retention discipline: an entry is one ``marshal`` blob of
        ``(ops, extra-state after-image)``, unmarshalled on hit.  The
        blob is a single non-GC object, so retaining thousands of
        streams is invisible to the cycle collector.  An early revision
        retained the op tuples themselves; the young-generation
        allocation counter never receives the matching deallocation
        credit for retained objects, so gen-0 collections fired ~7x as
        often and a low-hit-rate (miss-dominated) run was ~15% slower
        than no memo at all.  Unmarshalling costs ~2 allocations per op
        on each hit -- young objects that die with the op buffer --
        which is still ~30x cheaper than rebuilding the stream.  The
        entry key is a flat scalar tuple for the same reason: flat
        tuples of ints/strs are untracked by the first collection that
        sees them.
        """
        extra = self.extra_state()
        entry_key = (key, self.stream_token())
        if extra:
            for item in sorted(extra.items()):
                entry_key += item
        blob = memo.get(entry_key)
        if blob is not None:
            ops, after = marshal.loads(blob)
            if after:
                self.restore_extra(after)
            _MEMO_STATS.hits += 1
            _MEMO_STATS.ops_reused += len(ops)
            return ops
        ops = build()
        _MEMO_STATS.misses += 1
        if len(memo) < _MEMO_STREAM_CAP:
            try:
                memo[entry_key] = marshal.dumps((ops, self.extra_state()))
            except ValueError:
                # Third-party generator emitting op fields marshal cannot
                # serialize: serve it unmemoized.
                pass
        return ops

    def stream_token(self) -> Any:
        """Hashable token covering every workload-clock read
        :meth:`build_transaction` makes.

        Two builds of the same ``txn_key`` with equal tokens (and equal
        extra state) produce identical op lists.  The default -- the raw
        clock value -- is always correct but memoizes only exact replays;
        generators whose clock reads are coarser (integer phase/epoch
        arithmetic) or absent override this to widen reuse.  Generators
        with *float* phase arithmetic must NOT coarsen: ``sin(2*pi*t/P)``
        is not exactly periodic in floating point, so only the raw ``t``
        token is bit-safe.
        """
        return self.clock.total_transactions

    def build_transaction(self) -> list[Op]:
        """Produce the operation list for transaction ``self.txn_index``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Deterministic draw helpers (pure functions of stored counters)
    # ------------------------------------------------------------------
    def draw(self, *keys: int) -> int:
        """A 64-bit draw keyed by this transaction and ``keys``.

        Global-queue programs key on the shared stream ticket (all
        threads draw from one request stream); others key on the
        per-thread transaction index.  Bit-identical to
        ``hash_u64(stream seed, txn_key, *keys)``; the two-key prefix is
        hashed once per transaction and extended per draw.
        """
        if self._acc_key != self.txn_key:
            self._acc_key = self.txn_key
            self._acc = hash_u64(
                self.queue_seed if self.global_queue else self.seed, self.txn_key
            )
        return hash_extend(self._acc, *keys)

    def draw1(self, key: int) -> int:
        """Single-key :meth:`draw` with the SplitMix64 round inlined.

        Bit-identical to ``draw(key)``; the per-draw varargs tuple and
        ``hash_extend`` call are eliminated because most hot-path draws
        take exactly one key.
        """
        if self._acc_key != self.txn_key:
            self._acc_key = self.txn_key
            self._acc = hash_u64(
                self.queue_seed if self.global_queue else self.seed, self.txn_key
            )
        z = ((self._acc ^ (key & _MASK64)) + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def draw2(self, key1: int, key2: int) -> int:
        """Two-key :meth:`draw` with both SplitMix64 rounds inlined.

        Bit-identical to ``draw(key1, key2)``; same rationale as
        :meth:`draw1` for the second-most-common hot-path arity.
        """
        if self._acc_key != self.txn_key:
            self._acc_key = self.txn_key
            self._acc = hash_u64(
                self.queue_seed if self.global_queue else self.seed, self.txn_key
            )
        z = ((self._acc ^ (key1 & _MASK64)) + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z = (((z ^ (z >> 31)) ^ (key2 & _MASK64)) + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def draw_milli(self, *keys: int) -> int:
        """A draw in [0, 1000) for per-mille probability checks."""
        n = len(keys)
        if n == 1:
            return self.draw1(keys[0]) % 1000
        if n == 2:
            return self.draw2(keys[0], keys[1]) % 1000
        return self.draw(*keys) % 1000

    def pick_weighted(self, weights: list[int], *keys: int) -> int:
        """Pick an index with the given integer weights."""
        total = sum(weights)
        if len(keys) == 1:
            point = self.draw1(keys[0]) % total
        else:
            point = self.draw(*keys) % total
        cumulative = 0
        for index, weight in enumerate(weights):
            cumulative += weight
            if point < cumulative:
                return index
        return len(weights) - 1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpointable program state; subclasses extend via extra()."""
        return {
            "txn_index": self.txn_index,
            "txn_key": self.txn_key,
            "finished": self.finished,
            "extra": self.extra_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore from a :meth:`snapshot` value."""
        self.txn_index = state["txn_index"]
        self.txn_key = state["txn_key"]
        self.finished = state["finished"]
        self.restore_extra(state["extra"])

    def extra_state(self) -> dict:
        """Subclass hook: additional plain-data state to checkpoint."""
        return {}

    def restore_extra(self, extra: dict) -> None:
        """Subclass hook: restore :meth:`extra_state` data."""


class Workload:
    """Base class for workload factories.

    A workload instance is configuration, not state: it knows how many
    threads to create, how to build each thread's program, and the branch
    behaviour of its code.  ``scale`` multiplies per-transaction operation
    counts (1.0 = the fast default used in tests; larger values lengthen
    transactions toward paper-scale costs).
    """

    name = "workload"
    threads_per_cpu = 8
    #: branch-stream parameters (commercial code: large, noisy footprints)
    static_branches = 512
    taken_bias_milli = 650
    flip_noise_milli = 30
    indirect_milli = 30
    return_milli = 60
    #: instruction-footprint of the program text
    code_footprint_bytes = 2 * 1024 * 1024

    def __init__(self, seed: int = 12345, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.seed = seed
        self.scale = scale

    def n_threads(self, n_cpus: int) -> int:
        """Total thread count for a machine with ``n_cpus`` processors."""
        return self.threads_per_cpu * n_cpus

    def make_program(self, tid: int, clock: WorkloadClock) -> WorkloadProgram:
        """Build the program for thread ``tid``."""
        raise NotImplementedError

    def stream_key(self) -> tuple:
        """Value identity of this workload's transaction streams.

        Two workload instances with equal stream keys generate identical
        op lists for identical (tid, txn_key, clock, extra-state)
        coordinates, so their programs may share one memo bucket.  The
        key folds in the concrete class and every instance attribute --
        seed, scale, and any registry parameter overrides (all plain
        numbers) -- because any of them can steer ``build_transaction``.
        Computed at bind time, after overrides (and mutations such as the
        scientific workloads' ``total_threads``) have landed.
        """
        cls = type(self)
        return (
            cls.__module__,
            cls.__qualname__,
            tuple(sorted(self.__dict__.items())),
        )

    def bind_stream_memo(self, program: WorkloadProgram) -> None:
        """Attach the shared memo bucket for ``program``'s stream.

        Machine construction (and thaw) calls this once per thread.
        """
        key = (type(program).__qualname__, program.tid, self.stream_key())
        try:
            program._memo = _STREAM_MEMO.setdefault(key, {})
        except TypeError:
            # An unhashable config attribute (e.g. a scripted-ops list)
            # defeats value identity -- such a workload cannot prove two
            # instances generate the same stream, so it does not memoize.
            return

    def make_branch_context(self, tid: int) -> BranchContext:
        """Branch-stream context for thread ``tid``.

        Threads of one workload share a ``code_seed`` (same program text),
        so predictor state learned from one thread transfers to others.
        """
        return BranchContext(
            code_seed=stream_seed(self.seed, self.name, "code"),
            static_branches=self.static_branches,
            taken_bias_milli=self.taken_bias_milli,
            flip_noise_milli=self.flip_noise_milli,
            indirect_milli=self.indirect_milli,
            return_milli=self.return_milli,
        )

    def scaled(self, count: int) -> int:
        """Scale a per-transaction op count, keeping it at least 1."""
        return max(1, int(count * self.scale))
