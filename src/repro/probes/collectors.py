"""Ready-made probe collectors.

Each collector is a plain object exposing ``on_<hook>`` methods;
``ProbeBus.attach(collector)`` wires every one it finds onto the
matching hook.  Collectors only accumulate plain data, so their results
are trivially serializable for the run store.
"""

from __future__ import annotations

from collections import Counter

from repro.isa import N_OPCODES, OP_NAMES, SOURCE_NAMES


class OpCountProbe:
    """Counts dispatched operations per opcode (the hot ``op`` hook)."""

    def __init__(self) -> None:
        self.counts = [0] * N_OPCODES

    def on_op(self, now, cpu, tid, op) -> None:
        self.counts[op[0]] += 1

    @property
    def total(self) -> int:
        """Total operations dispatched."""
        return sum(self.counts)

    def by_name(self) -> dict[str, int]:
        """Counts keyed by op mnemonic (zero entries omitted)."""
        return {
            OP_NAMES[code]: count
            for code, count in enumerate(self.counts)
            if count
        }


class CacheTrafficProbe:
    """Tallies global (beyond-L2) coherence transactions."""

    def __init__(self) -> None:
        self.by_source = [0] * len(SOURCE_NAMES)
        self.writes = 0
        self.reads = 0
        self.latency_ns_total = 0
        self.hot_blocks: Counter = Counter()

    def on_cache(self, now, node, block, source, latency_ns, is_write) -> None:
        self.by_source[source] += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.latency_ns_total += latency_ns
        self.hot_blocks[block] += 1


class LockContentionProbe:
    """Per-lock contention: how often threads block, and hand-off pairs."""

    def __init__(self) -> None:
        self.blocks: Counter = Counter()
        self.handoffs: Counter = Counter()

    def on_lock(self, event, now, tid, lock_id) -> None:
        if event == "block":
            self.blocks[lock_id] += 1
        else:
            self.handoffs[lock_id] += 1


class ScheduleTraceProbe:
    """Records every dispatch decision as ``(now, cpu, tid)``.

    This is the paper's Figure 1 data, collected without enabling the
    scheduler's built-in trace (the two mechanisms are independent).
    """

    def __init__(self) -> None:
        self.decisions: list[tuple[int, int, int]] = []

    def on_sched(self, now, cpu, tid) -> None:
        self.decisions.append((now, cpu, tid))


class PhaseSignatureProbe:
    """Per-interval behaviour signatures from cheap probe-bus signals.

    Folds the signals that stay live during functional fast-forward --
    global coherence transactions (``cache``), lock contention
    (``lock``), and transaction completions (``txn``) -- into one
    feature vector per ``interval_transactions`` completions.  This is
    the survey input of :mod:`repro.core.livesample`: the vectors cost
    no timing model, yet shift when the workload changes phase (miss
    rate, sharing, contention, or transaction mix).

    Features are per-transaction rates (or fractions), so vectors are
    comparable across intervals regardless of interval length; the
    trailing partial interval is dropped (rate estimates over a short
    tail are quantization-biased, exactly as in
    :func:`repro.core.sampling.windowed_cycles_per_transaction`).
    """

    def __init__(self, interval_transactions: int) -> None:
        if interval_transactions <= 0:
            raise ValueError("interval_transactions must be positive")
        self.interval_transactions = interval_transactions
        #: one feature dict per completed interval, in lifetime order
        self.signatures: list[dict[str, float]] = []
        self._reset_interval()

    def _reset_interval(self) -> None:
        self._txns = 0
        self._coherence = 0
        self._coherence_writes = 0
        self._lock_blocks = 0
        self._lock_handoffs = 0
        self._txn_mix: Counter = Counter()

    def on_cache(self, now, node, block, source, latency_ns, is_write) -> None:
        self._coherence += 1
        if is_write:
            self._coherence_writes += 1

    def on_lock(self, event, now, tid, lock_id) -> None:
        if event == "block":
            self._lock_blocks += 1
        else:
            self._lock_handoffs += 1

    def on_txn(self, now, tid, type_id) -> None:
        self._txn_mix[type_id] += 1
        self._txns += 1
        if self._txns >= self.interval_transactions:
            self._flush()

    def _flush(self) -> None:
        txns = self._txns
        features = {
            "coherence_per_txn": self._coherence / txns,
            "coherence_write_fraction": (
                self._coherence_writes / self._coherence if self._coherence else 0.0
            ),
            "lock_blocks_per_txn": self._lock_blocks / txns,
            "lock_handoffs_per_txn": self._lock_handoffs / txns,
        }
        for type_id, count in sorted(self._txn_mix.items()):
            features[f"txn_mix_{type_id}"] = count / txns
        self.signatures.append(features)
        self._reset_interval()


class TransactionLogProbe:
    """Records every transaction completion as ``(now, tid, type_id)``."""

    def __init__(self) -> None:
        self.completions: list[tuple[int, int, int]] = []

    def on_txn(self, now, tid, type_id) -> None:
        self.completions.append((now, tid, type_id))
