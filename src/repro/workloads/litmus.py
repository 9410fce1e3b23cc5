"""Litmus kernels: the paper's figures as runnable two/three-thread
programs.

These are the scenarios of Figs 1–4 of the paper, built so that the
interesting races actually happen: caches are pre-warmed so post-fence
loads complete early, and a cold "pad" store keeps each fence
incomplete for a couple hundred cycles (the expensive-fence situation
the paper's introduction measures).

Used by the integration tests, the SCV checker tests and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.common.params import FenceDesign, FenceRole, MachineParams
from repro.core import isa as ops
from repro.sim.machine import Machine, SimResult


@dataclass
class LitmusOutcome:
    """Result of one litmus run."""

    result: SimResult
    #: per-thread observed values, keyed by (tid, label)
    observed: Dict[Tuple[int, str], int]

    def value(self, tid: int, label: str) -> Optional[int]:
        return self.observed.get((tid, label))


def _run_and_dispose(machine: Machine) -> LitmusOutcome:
    """Run the machine a kernel built, collect its notes, tear it down."""
    try:
        result = machine.run()
        observed: Dict[Tuple[int, str], int] = {}
        for core in machine.cores:
            for _po, payload in core.notes:
                label, value = payload
                observed[(core.core_id, label)] = value
        return LitmusOutcome(result, observed)
    finally:
        machine.dispose()


def litmus_params(
    design: FenceDesign, num_cores: int = 2, recovery: bool = True
) -> MachineParams:
    """Interleaving-exact parameters for litmus runs."""
    return replace(
        MachineParams(num_cores=num_cores, batch_cycles=0,
                      track_dependences=True).with_design(design),
        wplus_recovery_enabled=recovery,
    )


def _warmup(lines: List[int]):
    """Touch every address so later accesses are L1 hits, then sync-ish
    align the threads with a compute block."""
    for addr in lines:
        yield ops.Load(addr)
    yield ops.Compute(1600)


def store_buffering(
    design: FenceDesign,
    roles: Tuple[FenceRole, FenceRole] = (FenceRole.CRITICAL, FenceRole.STANDARD),
    fences: bool = True,
    pad_stores: int = 1,
    recovery: bool = True,
    seed: int = 1,
) -> LitmusOutcome:
    """Dekker/SB (paper Fig. 1d): P0: x=1; F; r=y.  P1: y=1; F; r=x.

    The SC-forbidden outcome is both threads reading 0.  *pad_stores*
    cold stores before the protected store keep each fence incomplete
    long enough for the fences to collide (a fence group).
    """
    machine = Machine(litmus_params(design, recovery=recovery), seed=seed)
    x, y = machine.alloc.word(), machine.alloc.word()
    pads = [machine.alloc.word() for _ in range(2 * max(1, pad_stores))]

    def thread(me: int, my_var: int, other_var: int, role: FenceRole):
        def fn(ctx):
            yield from _warmup([x, y])
            for p in range(pad_stores):
                yield ops.Store(pads[2 * p + me], 7)
            yield ops.Store(my_var, 1)
            if fences:
                yield ops.Fence(role)
            value = yield ops.Load(other_var)
            yield ops.Note(("r", value))
        return fn

    machine.spawn(thread(0, x, y, roles[0]))
    machine.spawn(thread(1, y, x, roles[1]))
    return _run_and_dispose(machine)


def three_thread_cycle(
    design: FenceDesign,
    roles: Tuple[FenceRole, FenceRole, FenceRole] = (
        FenceRole.CRITICAL, FenceRole.CRITICAL, FenceRole.STANDARD,
    ),
    fences: bool = True,
    seed: int = 1,
) -> LitmusOutcome:
    """Paper Fig. 1e/1f: a potential dependence cycle across three
    threads (P0: x=1;F;r=y — P1: y=1;F;r=z — P2: z=1;F;r=x).

    Forbidden under SC: all three loads reading 0.
    """
    machine = Machine(litmus_params(design, num_cores=3), seed=seed)
    x, y, z = (machine.alloc.word() for _ in range(3))
    pads = [machine.alloc.word() for _ in range(3)]
    pattern = [(x, y), (y, z), (z, x)]

    def thread(me: int, role: FenceRole):
        my_var, next_var = pattern[me]

        def fn(ctx):
            yield from _warmup([x, y, z])
            yield ops.Store(pads[me], 7)
            yield ops.Store(my_var, 1)
            if fences:
                yield ops.Fence(role)
            value = yield ops.Load(next_var)
            yield ops.Note(("r", value))
        return fn

    for me in range(3):
        machine.spawn(thread(me, roles[me]))
    return _run_and_dispose(machine)


def false_sharing_interference(
    design: FenceDesign,
    true_sharing: bool = False,
    seed: int = 1,
) -> LitmusOutcome:
    """Paper Fig. 4b: two *unrelated* wfs whose accesses collide only
    through false sharing (words x and x' of one line).

    With ``true_sharing=True`` the kernel becomes Fig. 4c instead: a
    one-directional true-sharing dependence that does *not* form a
    cycle — P1's pre-wf write hits P0's BS and bounces briefly, then
    the interference resolves (Order under WS+, fence completion under
    the other designs).
    """
    machine = Machine(litmus_params(design), seed=seed)
    # one line with two words: x (word 0) and x2 (word 1)
    line_base = machine.alloc.alloc_line(2)
    x, x2 = machine.alloc.words_of(line_base, 2)
    y_base = machine.alloc.alloc_line(2)
    y, y2 = machine.alloc.words_of(y_base, 2)
    z = machine.alloc.word()  # unrelated (Fig. 4c's non-cyclic read)
    pads = [machine.alloc.word() for _ in range(2)]

    def thread0(ctx):
        yield from _warmup([x, y, z])
        yield ops.Store(pads[0], 7)
        yield ops.Store(x, 1)          # pre-wf write to line X
        yield ops.Fence(FenceRole.CRITICAL)
        value = yield ops.Load(y)      # post-wf read of line Y
        yield ops.Note(("r", value))

    def thread1(ctx):
        yield from _warmup([x, y, z])
        yield ops.Store(pads[1], 7)
        if true_sharing:
            # Fig. 4c: write the very word P0 watches, read something
            # unrelated — a dependence but no cycle
            yield ops.Store(y, 1)
            yield ops.Fence(FenceRole.CRITICAL)
            value = yield ops.Load(z)
        else:
            # Fig. 4b: cycle only through false sharing (words x2/y2)
            yield ops.Store(y2, 1)
            yield ops.Fence(FenceRole.CRITICAL)
            value = yield ops.Load(x2)
        yield ops.Note(("r", value))

    machine.spawn(thread0)
    machine.spawn(thread1)
    return _run_and_dispose(machine)


def message_passing(
    design: FenceDesign,
    fences: bool = True,
    seed: int = 1,
) -> LitmusOutcome:
    """MP: P0 writes data then flag; P1 spins on flag then reads data.

    TSO keeps store-store and load-load order, so this passes even
    without fences — included as a sanity check that the weak designs
    do not break orderings TSO already guarantees.
    """
    machine = Machine(litmus_params(design), seed=seed)
    data, flag = machine.alloc.word(), machine.alloc.word()

    def producer(ctx):
        yield ops.Store(data, 42)
        if fences:
            yield ops.Fence(FenceRole.CRITICAL)
        yield ops.Store(flag, 1)

    def consumer(ctx):
        while True:
            f = yield ops.Load(flag)
            if f:
                break
            yield ops.Compute(20)
        value = yield ops.Load(data)
        yield ops.Note(("data", value))

    machine.spawn(producer)
    machine.spawn(consumer)
    return _run_and_dispose(machine)
