"""A ``max_cycles`` cutoff that lands inside a W+ recovery drain is a
budget artifact, not a hang — ``SimResult.completed`` goes False and
``stats.cutoff_in_recovery`` distinguishes it from a genuine timeout.
"""

from repro.common.params import FenceDesign, FenceRole, MachineParams
from repro.core import isa as ops
from repro.sim.machine import Machine


def _sb_all_wf():
    """SB with an all-wf fence group under W+: deterministically
    deadlocks and recovers (paper §3.3.3)."""
    params = MachineParams(num_cores=2, batch_cycles=0,
                           track_dependences=True)
    machine = Machine(params.with_design(FenceDesign.W_PLUS), seed=1)
    x, y = machine.alloc.word(), machine.alloc.word()
    pads = [machine.alloc.word() for _ in range(2)]

    def thread(me, my_var, other_var):
        def fn(ctx):
            yield ops.Load(x)  # warm both lines, then align the threads
            yield ops.Load(y)
            yield ops.Compute(1600)
            yield ops.Store(pads[me], 7)
            yield ops.Store(my_var, 1)
            yield ops.Fence(FenceRole.CRITICAL)
            value = yield ops.Load(other_var)
            yield ops.Note(("r", value))
        return fn

    machine.spawn(thread(0, x, y))
    machine.spawn(thread(1, y, x))
    return machine


def test_full_run_recovers_and_is_not_flagged():
    result = _sb_all_wf().run()
    assert result.completed
    assert result.stats.wplus_recoveries >= 1
    assert not result.stats.cutoff_in_recovery


def test_cutoff_during_recovery_drain_is_flagged():
    full = _sb_all_wf().run()
    # sweep budgets across the whole run; at least one must land inside
    # the recovery drain window (rollback done, write buffer still
    # draining), and every flagged run must also report incomplete
    flagged = []
    for budget in range(10, full.cycles + 1, 10):
        result = _sb_all_wf().run(max_cycles=budget)
        if result.stats.cutoff_in_recovery:
            assert not result.completed, (
                f"budget {budget}: cutoff_in_recovery with completed=True"
            )
            flagged.append(budget)
    assert flagged, "no budget cut the run inside its recovery window"
    # the window is an interval: recovery is one contiguous drain here
    assert flagged == list(range(flagged[0], flagged[-1] + 10, 10))


def test_cutoff_outside_recovery_is_not_flagged():
    # a budget long before the deadlock (mid-warmup): incomplete,
    # but not a recovery cutoff
    result = _sb_all_wf().run(max_cycles=200)
    assert not result.completed
    assert not result.stats.cutoff_in_recovery
