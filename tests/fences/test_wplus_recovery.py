"""W+ checkpoint/timeout/rollback machinery (paper §3.3.3)."""

from repro.common.params import FenceDesign, FenceRole
from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.synth.programs import sb, sharing

from tests.support import run_litmus, run_threads, tiny_params

CC = (FenceRole.CRITICAL, FenceRole.CRITICAL)


def test_recovery_squashes_and_reexecutes_loads():
    """After a rollback the post-wf load re-executes and reads the
    now-visible remote value — the Note channel must contain exactly
    one observation per thread (no duplicated side effects)."""
    run = run_litmus(sb(CC), FenceDesign.W_PLUS)
    assert run.recoveries >= 1
    # exactly one observation per thread despite replay
    assert len(run.observed) == 2


def test_recovery_counts_and_timeouts():
    s = run_litmus(sb(CC), FenceDesign.W_PLUS).stats
    assert s.wplus_timeouts >= s.wplus_recoveries >= 1


def test_no_recovery_without_collision():
    """A lone wf never triggers the deadlock monitor."""
    m = Machine(tiny_params(FenceDesign.W_PLUS, num_cores=1))
    x, y = m.alloc.word(), m.alloc.word()

    def t(ctx):
        yield ops.Store(x, 1)
        yield ops.Fence(FenceRole.CRITICAL)
        v = yield ops.Load(y)
        yield ops.Note(("r", v))

    run_threads(m, t)
    assert m.stats.wplus_recoveries == 0
    assert m.stats.wplus_timeouts == 0


def test_transient_bounce_does_not_recover():
    """A one-directional true-sharing bounce (Fig. 4c) clears on its
    own; the timeout must re-check and stand down."""
    run = run_litmus(sharing(true_sharing=True), FenceDesign.W_PLUS)
    # a timeout may have been armed, but with the conditions gone at
    # expiry no recovery (or at most the armed one) happens and the
    # run completes without SC violation
    assert run.completed
    assert not run.scv_found


def test_recovery_reverses_marks():
    """Marks consumed past the checkpoint are journalled and reversed
    on rollback — commits must not be double-counted."""
    m = Machine(tiny_params(FenceDesign.W_PLUS, num_cores=2))
    x, y = m.alloc.word(), m.alloc.word()
    pads = [m.alloc.word(), m.alloc.word()]

    def thread(me, mine, other):
        def fn(ctx):
            yield ops.Load(x)
            yield ops.Load(y)
            yield ops.Compute(1600)
            yield ops.Store(pads[me], 7)
            yield ops.Store(mine, 1)
            yield ops.Fence(FenceRole.CRITICAL)
            v = yield ops.Load(other)
            yield ops.Mark("txn_commit")   # post-wf mark: rolled back
            yield ops.Note(("r", v))
        return fn

    m.spawn(thread(0, x, y))
    m.spawn(thread(1, y, x))
    m.run()
    # exactly one commit per thread regardless of how many rollbacks
    assert m.stats.txn_commits == 2
    assert m.stats.wplus_recoveries >= 1


def test_recovery_discards_post_fence_stores():
    """Post-wf stores retired into the WB but not merged are squashed
    on rollback; their re-execution produces the only merge."""
    m = Machine(tiny_params(FenceDesign.W_PLUS, num_cores=2))
    x, y = m.alloc.word(), m.alloc.word()
    outs = [m.alloc.word(), m.alloc.word()]
    pads = [m.alloc.word(), m.alloc.word()]
    merge_counts = {0: 0, 1: 0}
    orig = m.image.observer

    def observer(kind, core, word, value, tag):
        if kind == "store" and word in outs:
            merge_counts[outs.index(word)] += 1

    m.image.observer = observer

    def thread(me, mine, other):
        def fn(ctx):
            yield ops.Load(x)
            yield ops.Load(y)
            yield ops.Compute(1600)
            yield ops.Store(pads[me], 7)
            yield ops.Store(mine, 1)
            yield ops.Fence(FenceRole.CRITICAL)
            v = yield ops.Load(other)
            yield ops.Store(outs[me], v + 100)  # post-wf store
        return fn

    m.spawn(thread(0, x, y))
    m.spawn(thread(1, y, x))
    m.run()
    assert m.stats.wplus_recoveries >= 1
    # each out-word merged exactly once (squash prevented the double)
    assert merge_counts == {0: 1, 1: 1}


def test_disabled_recovery_is_naive_design():
    run = run_litmus(sb(CC), FenceDesign.W_PLUS,
                     params_overrides={"wplus_recovery_enabled": False})
    assert run.deadlock is not None
