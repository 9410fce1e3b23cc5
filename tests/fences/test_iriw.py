"""IRIW (independent reads of independent writes).

TSO is multi-copy atomic: two readers can never observe two
independent writes in opposite orders, even without fences.  Our
simulator gets this by construction (a store merges into the single
coherent image in one event), and the weak fence designs must not
break it — a post-wf load reads the image too, just earlier.
"""

import pytest

from repro.common.params import FenceDesign, FenceRole
from repro.core import isa as ops
from repro.sim.machine import Machine

from tests.support import notes_of, tiny_params

ALL = tuple(FenceDesign)


def iriw_machine(design, fences, seed, stagger, track_dependences=False):
    """Run IRIW; returns the finished machine and its SimResult."""
    m = Machine(
        tiny_params(design, num_cores=4,
                    track_dependences=track_dependences),
        seed=seed,
    )
    x, y = m.alloc.word(), m.alloc.word()
    pads = [m.alloc.word(), m.alloc.word()]

    def writer(var, pad, delay):
        def fn(ctx):
            yield ops.Load(x)
            yield ops.Load(y)
            yield ops.Compute(1200 + delay)
            yield ops.Store(pad, 7)  # keeps a wf pending, if weak
            yield ops.Store(var, 1)
            if fences:
                yield ops.Fence(FenceRole.CRITICAL)
            yield ops.Load(var)
        return fn

    def reader(first, second, delay):
        def fn(ctx):
            yield ops.Load(x)
            yield ops.Load(y)
            yield ops.Compute(1200 + delay)
            a = yield ops.Load(first)
            if fences:
                yield ops.Fence(FenceRole.STANDARD)
            b = yield ops.Load(second)
            yield ops.Note(("ab", (a, b)))
        return fn

    m.spawn(writer(x, pads[0], 0))
    m.spawn(writer(y, pads[1], stagger))
    m.spawn(reader(x, y, 7 * stagger % 90))
    m.spawn(reader(y, x, 11 * stagger % 90))
    return m, m.run(max_cycles=1_000_000)


def run_iriw(design, fences, seed, stagger):
    m, _result = iriw_machine(design, fences, seed, stagger)
    r0 = notes_of(m, 2)[0][1]
    r1 = notes_of(m, 3)[0][1]
    return r0, r1


@pytest.mark.parametrize("design", ALL)
@pytest.mark.parametrize("stagger", [0, 23, 61])
def test_iriw_forbidden_outcome_never_appears(design, stagger):
    # forbidden: reader0 sees (x=1, y=0) while reader1 sees (y=1, x=0)
    r0, r1 = run_iriw(design, fences=True, seed=3, stagger=stagger)
    assert not (r0 == (1, 0) and r1 == (1, 0)), (r0, r1)


@pytest.mark.parametrize("stagger", [0, 23, 61])
def test_iriw_holds_even_without_fences_on_tso(stagger):
    r0, r1 = run_iriw(FenceDesign.W_PLUS, fences=False, seed=3,
                      stagger=stagger)
    assert not (r0 == (1, 0) and r1 == (1, 0)), (r0, r1)
