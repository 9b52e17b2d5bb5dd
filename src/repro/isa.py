"""The integer-coded operation ISA shared by workloads and the machine.

Workload programs emit operations as plain tuples whose first element is
an **integer opcode** from this module.  The machine's execution loop
dispatches each op through a table indexed by that opcode
(:class:`repro.system.machine.Machine`), which replaces the old
string-compare chain: one list index instead of up to nine interned
string comparisons, and opcodes cost nothing to allocate (small ints are
cached by CPython).

Operand layouts (unchanged from the original string encoding):

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

String op kinds (``"cpu"``, ``"mem"``, ...) are the scripted-program
input format, accepted at exactly one boundary: :meth:`SimThread.refill`
checks the first op a program hands back and runs a string-kinded list
through :func:`encode_ops`.  Everything past that boundary only ever
sees integers -- checkpointed op buffers included, so restore copies
them as they are.
"""

from __future__ import annotations

# Opcode values are dispatch-table indices; keep them dense from 0.
OP_CPU = 0
OP_MEM = 1
OP_LOCK = 2
OP_UNLOCK = 3
OP_IO = 4
OP_BARRIER = 5
OP_TXN_BEGIN = 6
OP_TXN_END = 7
OP_YIELD = 8

#: opcode -> canonical mnemonic (index == opcode)
OP_NAMES: tuple[str, ...] = (
    "cpu",
    "mem",
    "lock",
    "unlock",
    "io",
    "barrier",
    "txn_begin",
    "txn_end",
    "yield",
)

#: mnemonic -> opcode
OPCODES: dict[str, int] = {name: code for code, name in enumerate(OP_NAMES)}

N_OPCODES = len(OP_NAMES)


def op_name(code: int) -> str:
    """Return the canonical mnemonic for an opcode."""
    if 0 <= code < N_OPCODES:
        return OP_NAMES[code]
    raise ValueError(f"unknown opcode {code!r}")


def encode_ops(ops: list[tuple]) -> list[tuple]:
    """Translate a legacy string-kinded op list to integer opcodes.

    Already-integer opcodes pass through unchanged, so the function is
    idempotent and safe on mixed lists.
    """
    return [
        op if type(op[0]) is int else (OPCODES[op[0]],) + tuple(op[1:])
        for op in ops
    ]


# ----------------------------------------------------------------------
# Memory-access source codes
# ----------------------------------------------------------------------
# ``MemoryHierarchy.access`` reports where a reference was satisfied as a
# small integer; core models branch on it (an L1 hit is fully pipelined)
# without string comparisons, and the L1-hit fast path returns a cached
# ``(latency, SRC_L1)`` tuple with zero allocation.

SRC_L1 = 0
SRC_L2 = 1
SRC_CACHE = 2  # cache-to-cache transfer from a remote owner
SRC_MEMORY = 3
SRC_UPGRADE = 4  # invalidation-only upgrade (data already held)

#: source code -> canonical name (index == code)
SOURCE_NAMES: tuple[str, ...] = ("l1", "l2", "cache", "memory", "upgrade")
