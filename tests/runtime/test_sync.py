"""The spinlock primitive."""

import pytest

from repro.common.params import FenceDesign, MachineParams
from repro.core import isa as ops
from repro.runtime.sync import SpinLock
from repro.sim.machine import Machine

from tests.support import tiny_params


def test_spinlock_mutual_exclusion():
    m = Machine(tiny_params(num_cores=4, exact=False), seed=5)
    lock = SpinLock(m.alloc)
    counter = m.alloc.word()
    N = 10

    def worker(ctx):
        for _ in range(N):
            yield from lock.acquire(ctx.tid)
            v = yield ops.Load(counter)
            yield ops.Compute(30)
            yield ops.Store(counter, v + 1)
            yield from lock.release(ctx.tid)
            yield ops.Compute(40)

    m.spawn_all(worker)
    m.run(max_cycles=3_000_000)
    assert m.image.peek(counter) == 4 * N
    assert m.image.peek(lock.addr) == 0  # released


def test_spinlock_reports_contention_attempts():
    m = Machine(tiny_params(num_cores=2, exact=False), seed=5)
    lock = SpinLock(m.alloc)
    attempts = []

    def holder(ctx):
        yield from lock.acquire(0)
        yield ops.Compute(3000)
        yield from lock.release(0)

    def contender(ctx):
        yield ops.Compute(200)
        n = yield from lock.acquire(1)
        attempts.append(n)
        yield from lock.release(1)

    m.spawn(holder)
    m.spawn(contender)
    m.run()
    assert attempts and attempts[0] >= 1

