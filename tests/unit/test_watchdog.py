"""The global no-progress watchdog."""

import pytest

from repro.common.errors import DeadlockError
from repro.common.params import FenceDesign, FenceRole
from repro.core import isa as ops
from repro.sim.machine import Machine

from tests.support import run_threads, tiny_params


def test_watchdog_silent_on_healthy_runs():
    m = Machine(tiny_params(num_cores=2, watchdog_interval=500))
    x = m.alloc.word()

    def t(ctx):
        for i in range(40):
            yield ops.Store(x + 64 * (ctx.tid + 1), i)
            yield ops.Compute(100)

    res = run_threads(m, t, t)
    assert res.completed


def test_watchdog_tolerates_long_legitimate_stalls():
    """A memory-latency stall is progress-free for ~200 cycles but the
    default interval is far larger; no false positive."""
    m = Machine(tiny_params(num_cores=1))
    words = [m.alloc.word() for _ in range(20)]

    def t(ctx):
        for w in words:
            yield ops.Load(w)  # cold misses back to back

    res = run_threads(m, t)
    assert res.completed


def test_watchdog_reports_blocked_core_details():
    with pytest.raises(DeadlockError) as exc:
        _all_wf_deadlock_machine(recovery=False).run()
    message = str(exc.value)
    assert "bouncing" in message or "BS holds" in message
    assert exc.value.blocked_cores


def _all_wf_deadlock_machine(recovery: bool, interval: int = 2000):
    """A real W+ all-wf fence-group collision (paper Fig. 3a): both
    threads' pre-fence writes bounce off the other core's Bypass Set.
    With ``recovery=False`` (the naive design) the machine deadlocks;
    with recovery enabled W+ rolls back and completes."""
    m = Machine(tiny_params(
        design=FenceDesign.W_PLUS, num_cores=2,
        watchdog_interval=interval,
        wplus_recovery_enabled=recovery,
    ))
    x, y = m.alloc.word(), m.alloc.word()
    pads = [m.alloc.word() for _ in range(2)]

    def thread(me, mine, other):
        def fn(ctx):
            yield ops.Load(x)
            yield ops.Load(y)
            yield ops.Compute(1600)       # align after warmup
            yield ops.Store(pads[me], 7)  # cold pad keeps the wf open
            yield ops.Store(mine, 1)
            yield ops.Fence(FenceRole.CRITICAL)
            yield ops.Load(other)
        return fn

    m.spawn(thread(0, x, y))
    m.spawn(thread(1, y, x))
    return m


def test_watchdog_fires_within_its_interval():
    """Once progress stops, at most two watchdog periods may elapse
    before the error surfaces (one to sample, one to confirm)."""
    interval = 2000
    m = _all_wf_deadlock_machine(recovery=False, interval=interval)
    with pytest.raises(DeadlockError):
        m.run()
    # warmup ends well under one interval; the deadlock forms right
    # after, so the run must die within a few periods of its start
    assert m.queue.now <= 4 * interval


def test_watchdog_describe_names_the_bouncing_cores():
    m = _all_wf_deadlock_machine(recovery=False)
    with pytest.raises(DeadlockError) as exc:
        m.run()
    message = str(exc.value)
    assert "P0[" in message and "P1[" in message
    assert "store bouncing" in message
    assert sorted(exc.value.blocked_cores) == [0, 1]


def test_recovery_counters_increment_instead_of_deadlock():
    """Same collision, recovery on: the watchdog stays silent and the
    MachineStats recovery counters record the rollback."""
    m = _all_wf_deadlock_machine(recovery=True)
    result = m.run()
    assert result.completed
    assert m.stats.wplus_timeouts >= 1
    assert m.stats.wplus_recoveries >= 1


def _armed(queue, label):
    """How many live events labelled *label* the queue holds."""
    return sum(1 for _, lab in queue.pending_events() if lab == label)


def test_stop_is_idempotent_after_all_cores_finish():
    """Regression: when every core finished, the watchdog used to keep a
    handle on its own already-fired event, so a later stop() cancelled
    a dead event.  The check now stands down by returning False."""
    m = Machine(tiny_params(num_cores=2, watchdog_interval=500))
    x = m.alloc.word()

    def t(ctx):
        for i in range(40):
            yield ops.Store(x + 64 * (ctx.tid + 1), i)
            yield ops.Compute(100)

    res = run_threads(m, t, t)
    assert res.completed
    # Machine.run stopped its checks: nothing of the watchdog is left
    assert _armed(m.queue, "watchdog") == 0
    # re-armed on the finished machine, the check fires once, finds no
    # live core and stands down; repeated stops are then no-ops
    handle = m.queue.every(500, m._watchdog.check, "watchdog")
    assert m._watchdog.check() is False
    m.queue.clear_stop()
    m.queue.run()
    assert _armed(m.queue, "watchdog") == 0
    handle.stop()
    handle.stop()


def test_stop_is_idempotent_after_a_deadlock_raise():
    """Regression: the check raised DeadlockError while the handle
    still pointed at the fired event."""
    m = _all_wf_deadlock_machine(recovery=False)
    with pytest.raises(DeadlockError):
        m.run()
    assert _armed(m.queue, "watchdog") == 0
    handle = m.queue.every(2000, m._watchdog.check, "watchdog")
    with pytest.raises(DeadlockError):
        m.queue.run()  # still no progress: the check raises again
    assert _armed(m.queue, "watchdog") == 0
    pending = len(m.queue)
    handle.stop()  # must not touch a fired event
    handle.stop()
    assert len(m.queue) == pending


def test_watchdog_restarts_after_stop():
    """Arming after stop() re-arms cleanly (one fresh live event)."""
    m = Machine(tiny_params(num_cores=1, watchdog_interval=500))
    first = m.queue.every(500, m._watchdog.check, "watchdog")
    assert _armed(m.queue, "watchdog") == 1
    first.stop()
    assert _armed(m.queue, "watchdog") == 0
    second = m.queue.every(500, m._watchdog.check, "watchdog")
    assert _armed(m.queue, "watchdog") == 1
    first.stop()  # a stopped handle does not reach the new event
    assert _armed(m.queue, "watchdog") == 1
    second.stop()
    assert _armed(m.queue, "watchdog") == 0


def test_watchdog_counts_drain_as_progress():
    """A finished thread with a draining write buffer is progress, not
    deadlock (regression: the watchdog once only looked at op counts)."""
    m = Machine(tiny_params(num_cores=1, watchdog_interval=300))
    words = [m.alloc.word() for _ in range(8)]

    def t(ctx):
        for w in words:
            yield ops.Store(w, 1)  # thread ends with a full buffer

    res = run_threads(m, t)
    assert res.completed
    assert all(m.image.peek(w) == 1 for w in words)
