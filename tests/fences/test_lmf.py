"""The l-mf extension (related work, paper §8)."""

import pytest

from repro.common.params import FenceDesign, FenceRole
from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.synth.programs import sb

from tests.support import outcome, run_litmus, run_threads, tiny_params


def test_lmf_is_a_strong_flavour():
    from repro.common.params import FenceFlavour, flavour_for
    for role in FenceRole:
        assert flavour_for(FenceDesign.LMF, role) is FenceFlavour.SF


def test_lmf_preserves_sc_on_store_buffering():
    run = run_litmus(sb((FenceRole.CRITICAL, FenceRole.STANDARD)),
                     FenceDesign.LMF)
    assert outcome(run) != (0, 0)
    assert not run.scv_found


def test_lmf_fast_path_when_location_stays_exclusive():
    m = Machine(tiny_params(FenceDesign.LMF, num_cores=1))
    x = m.alloc.word()

    def t(ctx):
        yield ops.Store(x, 0)         # gain M (cold miss, ~200 cycles)
        yield ops.Compute(1600)       # let it merge before the loop
        for i in range(5):
            yield ops.Store(x, i)     # M hits
            yield ops.Fence(FenceRole.CRITICAL)

    run_threads(m, t)
    assert m.stats.lmf_fast >= 5
    # far cheaper than five conventional fences
    assert m.stats.total_breakdown()["fence_stall"] < \
        5 * m.params.sf_base_cycles


def test_lmf_falls_back_when_another_thread_touches_the_location():
    m = Machine(tiny_params(FenceDesign.LMF, num_cores=2))
    x = m.alloc.word()

    def owner(ctx):
        yield ops.Store(x, 1)         # cold: line not yet writable-held
        yield ops.Fence(FenceRole.CRITICAL)
        yield ops.Compute(900)        # the peer reads x: M -> S
        yield ops.Store(x, 2)         # upgrade in flight at the fence
        yield ops.Fence(FenceRole.CRITICAL)

    def peer(ctx):
        yield ops.Compute(400)
        yield ops.Load(x)

    run_threads(m, owner, peer)
    assert m.stats.lmf_fallbacks >= 1


def test_lmf_sits_between_s_plus_and_ws_plus_on_work_stealing():
    """The qualitative §8 comparison on its natural workload: l-mf
    beats S+ while the deque stays owner-exclusive, and the wf designs
    match or beat it."""
    from repro.sanitizer.core import sanitize_mode
    from repro.workloads.base import load_all_workloads, run_workload
    load_all_workloads()
    cycles = {}
    for design in (FenceDesign.S_PLUS, FenceDesign.LMF,
                   FenceDesign.WS_PLUS):
        run = run_workload("fib", design, num_cores=4, scale=0.2,
                           check=True, sanitize=sanitize_mode())
        cycles[design] = run.cycles
    assert cycles[FenceDesign.LMF] <= cycles[FenceDesign.S_PLUS]
    assert cycles[FenceDesign.WS_PLUS] <= 1.1 * cycles[FenceDesign.LMF]
