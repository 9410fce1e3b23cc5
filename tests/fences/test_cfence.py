"""The C-fence extension (related work, paper §8)."""

import pytest

from repro.common.params import FenceDesign, FenceRole
from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.sim.scv import find_scv
from repro.workloads import litmus

from tests.support import run_threads, tiny_params


def test_cfence_preserves_sc_on_store_buffering():
    for seed in (1, 2, 3):
        lit = litmus.store_buffering(FenceDesign.CFENCE, seed=seed)
        assert (lit.value(0, "r"), lit.value(1, "r")) != (0, 0)
        assert find_scv(lit.result.events) is None


def test_cfence_three_thread_cycle_prevented():
    lit = litmus.three_thread_cycle(FenceDesign.CFENCE)
    values = [lit.value(t, "r") for t in range(3)]
    assert values != [0, 0, 0]
    assert find_scv(lit.result.events) is None


def test_lone_fence_is_skipped():
    m = Machine(tiny_params(FenceDesign.CFENCE, num_cores=1))
    x, y = m.alloc.word(), m.alloc.word()

    def t(ctx):
        yield ops.Store(x, 1)   # cold, ~200 cycles to merge
        yield ops.Fence(FenceRole.CRITICAL)
        yield ops.Load(y)

    run_threads(m, t)
    assert m.stats.cfence_skips == 1
    assert m.stats.cfence_stalls == 0
    # only the table round trip was charged, not the drain
    assert m.stats.total_breakdown()["fence_stall"] < \
        m.params.memory_cycles


def test_colliding_fences_one_stalls():
    lit = litmus.store_buffering(FenceDesign.CFENCE, pad_stores=2)
    s = lit.result.stats
    # at least one dynamic fence observed an executing associate
    assert s.cfence_stalls >= 1
    assert s.cfence_skips >= 1


def test_cfence_workload_invariants():
    from repro.sanitizer.core import sanitize_mode
    from repro.workloads.base import load_all_workloads, run_workload
    load_all_workloads()
    run = run_workload("fib", FenceDesign.CFENCE, num_cores=4,
                       scale=0.2, check=True, sanitize=sanitize_mode())
    s = run.stats
    assert s.cfence_skips + s.cfence_stalls == s.total_sf
    # fences rarely collide in work stealing: mostly skipped
    assert s.cfence_skips > s.cfence_stalls


def test_table_clears_after_run():
    lit = litmus.store_buffering(FenceDesign.CFENCE, pad_stores=2)
    # reconstruct the machine's table via the stats-only surface:
    # instead, run a fresh machine and inspect directly
    m = Machine(tiny_params(FenceDesign.CFENCE, num_cores=2))
    x, y = m.alloc.word(), m.alloc.word()

    def t0(ctx):
        yield ops.Store(x, 1)
        yield ops.Fence(FenceRole.CRITICAL)
        yield ops.Load(y)

    def t1(ctx):
        yield ops.Store(y, 1)
        yield ops.Fence(FenceRole.STANDARD)
        yield ops.Load(x)

    run_threads(m, t0, t1)
    from repro.fences.cfence import table_for
    assert not table_for(m).active, "table entries must clear at drain"
