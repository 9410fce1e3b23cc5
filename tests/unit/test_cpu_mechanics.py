"""Core-model mechanics: accounting identity, WB-full stalls, batching
equivalence, determinism, epoch guards."""

import pytest

from repro.common.params import FenceDesign, FenceFlavour, FenceRole
from repro.core import isa as ops
from repro.fences.base import PendingFence, policy_class
from repro.obs import Observability
from repro.sim.machine import Machine

from tests.support import notes_of, run_threads, tiny_params


def test_cycle_accounting_identity():
    """Every accounted cycle is busy, fence stall or other stall, and
    the per-core total is close to the core's active wall time."""
    m = Machine(tiny_params(FenceDesign.S_PLUS, num_cores=1))
    x, y = m.alloc.word(), m.alloc.word()

    def t(ctx):
        yield ops.Compute(400)
        yield ops.Store(x, 1)
        yield ops.Fence(FenceRole.CRITICAL)
        yield ops.Load(y)
        yield ops.Compute(100)

    res = run_threads(m, t)
    b = m.stats.breakdown[0]
    assert b.busy > 0 and b.fence_stall > 0 and b.other_stall > 0
    # the accounted time cannot exceed the simulated wall clock (plus
    # the scheduling slack of the final continuation events)
    assert b.total <= res.cycles + 10


def test_instruction_counting():
    m = Machine(tiny_params(num_cores=1))
    x = m.alloc.word()

    def t(ctx):
        yield ops.Compute(100)   # 100 instructions
        yield ops.Store(x, 1)    # 1
        yield ops.Load(x)        # 1 (forwarded)
        yield ops.Fence()        # 1
        yield ops.AtomicRMW(x, "add", 1)  # 1

    run_threads(m, t)
    assert m.stats.total_instructions == 104


def test_write_buffer_full_stalls_the_core():
    m = Machine(tiny_params(num_cores=1, write_buffer_entries=2))
    words = [m.alloc.word() for _ in range(6)]

    def t(ctx):
        for w in words:
            yield ops.Store(w, 1)  # cold stores: drain ~200cy each

    run_threads(m, t)
    assert m.stats.total_breakdown()["other_stall"] > 400
    for w in words:
        assert m.image.peek(w) == 1


def test_batching_preserves_results():
    """The micro-batch fast path may only change timing details, never
    values or final memory state."""
    def program(words):
        def t(ctx):
            acc = 0
            for i, w in enumerate(words):
                yield ops.Store(w, i + 1)
                v = yield ops.Load(w)
                acc += v
                yield ops.Compute(7)
            yield ops.Note(("acc", acc))
        return t

    results = {}
    for batch in (0, 24):
        m = Machine(tiny_params(num_cores=1, batch_cycles=batch))
        words = [m.alloc.word() for _ in range(8)]
        m.spawn(program(words))
        m.run()
        results[batch] = (notes_of(m, 0), [m.image.peek(w) for w in words])
    assert results[0] == results[24]


@pytest.mark.parametrize("design", [FenceDesign.S_PLUS, FenceDesign.W_PLUS])
def test_same_seed_is_deterministic(design):
    def run_once():
        m = Machine(tiny_params(design, num_cores=2, exact=False), seed=42)
        x, y = m.alloc.word(), m.alloc.word()

        def t0(ctx):
            for i in range(20):
                yield ops.Store(x, i)
                yield ops.Fence(FenceRole.CRITICAL)
                yield ops.Load(y)
                yield ops.Compute(ctx.rng.randrange(10, 60))

        def t1(ctx):
            for i in range(20):
                yield ops.Store(y, i)
                yield ops.Fence(FenceRole.STANDARD)
                yield ops.Load(x)
                yield ops.Compute(ctx.rng.randrange(10, 60))

        m.spawn(t0)
        m.spawn(t1)
        res = m.run()
        return res.cycles, m.stats.total_instructions, m.stats.bounces

    assert run_once() == run_once()


def test_note_payloads_in_program_order():
    m = Machine(tiny_params(num_cores=1))

    def t(ctx):
        for i in range(5):
            yield ops.Note(("i", i))
            yield ops.Compute(10)

    run_threads(m, t)
    assert notes_of(m, 0) == [("i", i) for i in range(5)]


def test_unknown_op_raises():
    m = Machine(tiny_params(num_cores=1))

    def t(ctx):
        yield "not an op"

    m.spawn(t)
    with pytest.raises(TypeError):
        m.run()


def test_unknown_mark_kind_raises():
    m = Machine(tiny_params(num_cores=1))

    def t(ctx):
        yield ops.Mark("bogus")

    m.spawn(t)
    with pytest.raises(ValueError):
        m.run()


def test_spawn_more_threads_than_cores_rejected():
    from repro.common.errors import ConfigError
    m = Machine(tiny_params(num_cores=1))
    m.spawn(lambda ctx: iter(()))
    with pytest.raises(ConfigError):
        m.spawn(lambda ctx: iter(()))


def test_txn_cycle_marks_measure_span():
    m = Machine(tiny_params(num_cores=1))

    def t(ctx):
        yield ops.Mark("txn_cycles_begin")
        yield ops.Compute(400)  # 100 cycles at issue width 4
        yield ops.Mark("txn_cycles_end")

    run_threads(m, t)
    assert 90 <= m.stats.txn_cycles <= 140


def _rmw_in_flight(bump_epoch):
    """A W+ core whose RMW sits at a stubbed L1: returns the machine,
    the captured ``issue_rmw`` calls and the values ``_advance`` saw."""
    m = Machine(tiny_params(FenceDesign.W_PLUS, num_cores=1))
    core = m.cores[0]
    x = m.alloc.word()
    issued, advanced = [], []
    core.l1.issue_rmw = lambda word, apply_fn, on_done, on_bounce, po=0: \
        issued.append((word, on_done, on_bounce))

    def t(ctx):
        yield ops.AtomicRMW(x, "add", 1)

    m.spawn(t)
    core.start()
    m.queue.run(until=10)
    assert [word for word, _, _ in issued] == [x]
    core._advance = advanced.append
    if bump_epoch:
        core._epoch += 1  # what a W+ rollback does to in-flight work
    return m, issued, advanced


def test_rmw_bounce_retries_and_completes_within_its_epoch():
    m, issued, advanced = _rmw_in_flight(bump_epoch=False)
    _, on_done, on_bounce = issued[0]
    on_bounce()
    assert m.stats.write_retries == 1
    assert m.queue.pending_events() == [
        (m.queue.now + m.params.bounce_retry_cycles, "cpu.rmw_retry")]
    m.queue.run()
    assert len(issued) == 2
    issued[1][1](41)
    assert advanced == [41]


def test_rmw_issued_before_a_rollback_is_squashed_for_good():
    """The epoch belongs to the access, fixed when it issued: a bounce
    that lands after a rollback must not re-issue the RMW under the new
    epoch, and a late completion must not advance the squashed thread."""
    m, issued, advanced = _rmw_in_flight(bump_epoch=True)
    _, on_done, on_bounce = issued[0]
    on_bounce()
    # the counter and the retry event fire where they always did ...
    assert m.stats.write_retries == 1
    assert [label for _, label in m.queue.pending_events()] == \
        ["cpu.rmw_retry"]
    m.queue.run()
    # ... but the retry issues nothing, and neither continuation
    # resurrects the thread
    assert len(issued) == 1
    on_done(41)
    assert advanced == []


# ----------------------------------------------------------------------
# A W+ rollback squashes every continuation the core has parked: one
# test per place a continuation can wait.  Each parks one on a W+ core,
# forces ``_recover()`` at that moment and counts the control flows that
# come back — exactly one, the recovery's own resume.
# ----------------------------------------------------------------------

def _wplus_core(then=(), cold_stores=1, **params):
    """A one-core W+ machine running: *cold_stores* stores to cold
    lines (~200 cycles of drain each keep the wf open), a wf, then the
    ops *then* builds from four fresh words.  Spawned and started."""
    m = Machine(tiny_params(FenceDesign.W_PLUS, num_cores=1, **params))
    cold = [m.alloc.word() for _ in range(cold_stores)]
    words = [m.alloc.word() for _ in range(4)]

    def fn(ctx):
        for word in cold:
            yield ops.Store(word, 1)
        yield ops.Fence(FenceRole.CRITICAL)
        for op in then:
            yield op(words)

    m.spawn(fn)
    m.cores[0].start()
    return m, m.cores[0]


def _step_until(m, reached):
    while not reached():
        assert m.queue.step(), "queue ran dry before the state was reached"


def _pend_a_wf(core):
    """A checkpointed wf for ``_recover`` to roll back to, where the
    state under test has no real one outstanding."""
    core.pending_fences.append(PendingFence(
        fence_id=99, last_store_id=core.wb.newest_store_id(),
        checkpoint=core.thread.checkpoint()))


def _resumed_after_rollback(m, core):
    """Force a rollback now and drain the queue; returns what
    ``_advance`` was called with from then on."""
    advanced = []
    core._advance = advanced.append
    core._recover()
    m.queue.run()
    assert not core.recovering
    return advanced


def _labels(m):
    return [label for _, label in m.queue.pending_events()]


def test_rollback_squashes_the_start_event():
    m, core = _wplus_core()
    assert _labels(m) == ["cpu.start"]
    _pend_a_wf(core)
    assert _resumed_after_rollback(m, core) == [None]


def test_rollback_squashes_a_store_waiting_for_a_write_buffer_slot():
    m, core = _wplus_core(
        then=(lambda w: ops.Store(w[0], 2), lambda w: ops.Store(w[1], 3)),
        write_buffer_entries=2)
    _step_until(m, lambda: core._wb_full_waiter is not None)
    retired = m.stats.instructions[0]
    assert _resumed_after_rollback(m, core) == [None]
    assert core._wb_full_waiter is None
    assert m.stats.instructions[0] == retired  # the blocked store never did


def test_rollback_squashes_a_load_stalled_on_a_full_bypass_set():
    m, core = _wplus_core(
        then=(lambda w: ops.Load(w[0]), lambda w: ops.Load(w[1])),
        cold_stores=4, bs_entries=1)
    _step_until(m, lambda: core._stalled_load is not None)
    assert _resumed_after_rollback(m, core) == [None]
    assert core._stalled_load is None
    assert m.stats.bs_insertions == 1  # the parked load never entered the BS


def _demoted_sf_waiting_for_drain():
    """A W+ core whose second fence runs as an sf (as a fence demoted at
    run time does) and sits in the drain wait behind an open wf."""
    m, core = _wplus_core(
        then=(lambda w: ops.Store(w[0], 2),
              lambda w: ops.Fence(FenceRole.CRITICAL)))
    _step_until(m, lambda: core.pending_fences)
    core.policy.flavour = lambda role: FenceFlavour.SF
    _step_until(m, lambda: core._sf_wait is not None)
    return m, core


def test_rollback_squashes_an_sf_waiting_for_the_drain():
    m, core = _demoted_sf_waiting_for_drain()
    # (a drain wait that survived would charge the sf and resume twice)
    assert _resumed_after_rollback(m, core) == [None]


def test_rollback_squashes_the_continuation_after_an_sf():
    m, core = _demoted_sf_waiting_for_drain()
    _step_until(m, lambda: core._sf_wait is None)  # drained, sf charged
    assert _labels(m).count("cpu.cont") == 1  # its resume is parked
    assert not core.pending_fences  # (the drain completed the real wf)
    _pend_a_wf(core)
    assert _resumed_after_rollback(m, core) == [None]


def test_second_rollback_squashes_the_first_ones_resume():
    m, core = _wplus_core()
    _step_until(m, lambda: core.pending_fences)
    core._advance = None  # nothing may advance before the second one
    core._recover()
    assert core.recovering and core._sf_wait is not None
    _pend_a_wf(core)
    assert _resumed_after_rollback(m, core) == [None]
    assert m.stats.wplus_recoveries == 2


@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
def test_custom_strong_fence_resumes_once_and_never_meets_a_rollback(traced):
    """The resume handed to a custom strong fence (what the two
    ``_guard`` sites of ``_exec_fence``, plain and traced, wrapped) is
    held outside the core — by the C-fence table, by queue events —
    where ``_recover`` cannot reach it; so no design may pair a custom
    fence with rollback, and ``Core.__init__`` asserts none does."""
    for design in FenceDesign:
        cls = policy_class(design)
        assert cls.custom_strong_fence is None or not (
            cls.needs_checkpoint or cls.needs_deadlock_monitor)
    m = Machine(tiny_params(FenceDesign.CFENCE, num_cores=1))
    if traced:
        Observability().attach(m)
    x = m.alloc.word()
    resumed = []

    def t(ctx):
        yield ops.Store(x, 1)
        yield ops.Fence(FenceRole.CRITICAL)
        resumed.append(m.queue.now)
        yield ops.Load(x)

    assert run_threads(m, t).completed
    assert len(resumed) == 1 and m.stats.sf_executed[0] == 1
    assert m.cores[0]._epoch == 0
