"""Synchronization primitives for simulated threads.

These are *generator subroutines*: workload code composes them with
``yield from``.  They operate on simulated shared memory, so their cost
(CAS round trips, spin traffic) is part of the measured execution.
"""

from __future__ import annotations

from repro.core import isa as ops


class SpinLock:
    """Test-and-test&set spinlock over one simulated word.

    ``0`` = free, ``holder+1`` = taken.  The CAS (an atomic RMW) drains
    the write buffer, giving the usual x86 lock-acquire semantics; the
    release is a plain store (TSO keeps it ordered after the critical
    section's stores).
    """

    def __init__(self, alloc):
        self.addr = alloc.word()

    def acquire(self, tid: int, spin_compute: int = 20):
        attempts = 0
        while True:
            owner = yield ops.Load(self.addr)
            if owner == 0:
                old = yield ops.AtomicRMW(self.addr, "cas", (0, tid + 1))
                if old == 0:
                    return attempts
            attempts += 1
            yield ops.Compute(spin_compute)

    def release(self, tid: int):
        yield ops.Store(self.addr, 0)

