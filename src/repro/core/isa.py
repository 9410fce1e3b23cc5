"""The operations a simulated thread can yield to its core.

Workloads are Python generator functions.  Each ``yield`` hands the core
one of these operation descriptors; the value the generator receives
back is the operation's result (the loaded value for :class:`Load`, the
old value for :class:`AtomicRMW`, ``None`` otherwise).

Threads must be *deterministic* functions of these results (see
:mod:`repro.core.thread`): W+ rollback re-executes a thread prefix by
replaying the recorded results.

The op classes are hand-written ``__slots__`` value types rather than
frozen dataclasses: one is allocated per simulated operation, and a
frozen dataclass pays an ``object.__setattr__`` per field on every
construction.  They keep dataclass semantics — keyword construction,
field-tuple equality (class-checked), field-tuple hashing — and must be
treated as immutable even though Python no longer enforces it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.params import FenceRole


class Load:
    """Read one word of simulated shared memory."""

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self):
        return f"Load(addr={self.addr!r})"

    def __eq__(self, other):
        if other.__class__ is Load:
            return self.addr == other.addr
        return NotImplemented

    def __hash__(self):
        return hash((self.addr,))


class Store:
    """Write one word of simulated shared memory (retires into the WB)."""

    __slots__ = ("addr", "value")

    def __init__(self, addr: int, value: int):
        self.addr = addr
        self.value = value

    def __repr__(self):
        return f"Store(addr={self.addr!r}, value={self.value!r})"

    def __eq__(self, other):
        if other.__class__ is Store:
            return (self.addr, self.value) == (other.addr, other.value)
        return NotImplemented

    def __hash__(self):
        return hash((self.addr, self.value))


class Fence:
    """A memory fence, annotated with its asymmetric-group role.

    The active :class:`~repro.common.params.FenceDesign` decides whether
    this executes as an sf or a wf (``flavour_for``).
    """

    __slots__ = ("role",)

    def __init__(self, role: FenceRole = FenceRole.STANDARD):
        self.role = role

    def __repr__(self):
        return f"Fence(role={self.role!r})"

    def __eq__(self, other):
        if other.__class__ is Fence:
            return self.role == other.role
        return NotImplemented

    def __hash__(self):
        return hash((self.role,))


class AtomicRMW:
    """Atomic read-modify-write (exchange, fetch-add, CAS...).

    Executes with fence semantics under TSO: the write buffer drains
    first, then the RMW performs atomically at the memory system.  The
    generator receives the **old** value.

    ``op`` names the update: "xchg" (write operand), "add" (old +
    operand), "cas" (write ``operand[1]`` iff old == ``operand[0]``).
    """

    __slots__ = ("addr", "op", "operand")

    def __init__(self, addr: int, op: str, operand: object = 0):
        self.addr = addr
        self.op = op
        self.operand = operand

    def __repr__(self):
        return (f"AtomicRMW(addr={self.addr!r}, op={self.op!r}, "
                f"operand={self.operand!r})")

    def __eq__(self, other):
        if other.__class__ is AtomicRMW:
            return (self.addr, self.op, self.operand) == \
                (other.addr, other.op, other.operand)
        return NotImplemented

    def __hash__(self):
        return hash((self.addr, self.op, self.operand))

    def apply(self, old: int) -> int:
        if self.op == "xchg":
            return int(self.operand)
        if self.op == "add":
            return old + int(self.operand)
        if self.op == "cas":
            expected, new = self.operand
            return int(new) if old == expected else old
        raise ValueError(f"unknown RMW op {self.op!r}")


class Compute:
    """*instructions* non-memory instructions of local work."""

    __slots__ = ("instructions",)

    def __init__(self, instructions: int):
        self.instructions = instructions

    def __repr__(self):
        return f"Compute(instructions={self.instructions!r})"

    def __eq__(self, other):
        if other.__class__ is Compute:
            return self.instructions == other.instructions
        return NotImplemented

    def __hash__(self):
        return hash((self.instructions,))


class Mark:
    """Zero-time statistics marker (transaction committed, task run...).

    ``kind`` is one of the counters understood by the core:
    ``txn_commit``, ``txn_abort``, ``task_executed``, ``task_stolen``,
    ``txn_cycles_begin`` / ``txn_cycles_end`` (per-transaction cycle
    accounting for Figure 10).
    """

    __slots__ = ("kind", "amount")

    def __init__(self, kind: str, amount: int = 1):
        self.kind = kind
        self.amount = amount

    def __repr__(self):
        return f"Mark(kind={self.kind!r}, amount={self.amount!r})"

    def __eq__(self, other):
        if other.__class__ is Mark:
            return (self.kind, self.amount) == (other.kind, other.amount)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.amount))


class Note:
    """Rollback-aware observation channel, zero-time only under
    micro-batching.

    With ``batch_cycles > 0`` a note rides in the batch of the op
    before it and costs no cycle.  With ``batch_cycles = 0`` — every
    :func:`repro.verify.oracles.run_program` run — the core handles one
    op per event, so a note is an event of its own and the thread's
    next op runs one cycle later (``Core._advance``).

    The core appends ``payload`` to its notes list when the op is
    *dispatched* — replayed prefixes are not re-dispatched, and a W+
    recovery discards notes past the checkpoint.  Thread code must use
    this (never Python-side mutation) for any observable side effect:
    plain list appends would be duplicated by checkpoint replay.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: object):
        self.payload = payload

    def __repr__(self):
        return f"Note(payload={self.payload!r})"

    def __eq__(self, other):
        if other.__class__ is Note:
            return self.payload == other.payload
        return NotImplemented

    def __hash__(self):
        return hash((self.payload,))


#: Operations that access the simulated shared memory.
MEMORY_OPS = (Load, Store, AtomicRMW)
