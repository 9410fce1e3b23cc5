"""Property tests: the two event-queue backends are indistinguishable.

Hypothesis drives both kernels through identical random command
scripts — schedule (interned handler or closure, zero and positive
delays, labelled and not), cancel (live, already-fired, double, None),
nested scheduling from inside handlers, requeue-after-cancel, stop
requests — and asserts the full dispatch stream ``(cycle, tag,
payload)`` is identical, event for event, in order.

Also pinned here: the handle discipline.  The object kernel's handle
is the heap entry itself (a plain list, never reused by the queue); the
flat kernel never reuses seqs.  Both must agree on the *observable*
consequence — a stale handle (its event already fired or cancelled)
can never cancel a later event.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import EventQueue
from repro.common.flatevents import FlatEventQueue


class Script:
    """Replays one random command list against one queue backend."""

    def __init__(self, queue, commands):
        self.queue = queue
        self.commands = commands
        self.log = []          # the dispatch stream: (cycle, tag, payload)
        self.handles = []      # every handle schedule() ever returned
        self._tags = 0

    def _fire(self, tag, nested):
        queue = self.queue
        self.log.append((queue.now, tag, len(queue)))
        for cmd in nested:
            self.apply(cmd)

    def apply(self, cmd):
        kind = cmd[0]
        queue = self.queue
        if kind == "sched":
            _, delay, label, interned, nested = cmd
            self._tags += 1
            tag = self._tags
            fn = lambda tag=tag, nested=nested: self._fire(tag, nested)
            if interned:
                register = getattr(queue, "register_handler", None)
                if register is not None:
                    register(fn)
            self.handles.append(queue.schedule(delay, fn, label))
        elif kind == "cancel":
            _, idx = cmd
            if self.handles:
                queue.cancel(self.handles[idx % len(self.handles)])
        elif kind == "cancel_none":
            queue.cancel(None)
        elif kind == "stop":
            queue.request_stop()

    def run(self):
        for cmd in self.commands:
            self.apply(cmd)
        self.queue.clear_stop()
        self.queue.run()
        return self.log


def _nested_cmds(depth):
    """Commands a handler may issue mid-dispatch (bounded recursion)."""
    if depth <= 0:
        return st.lists(st.sampled_from([("cancel_none",)]), max_size=1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("sched"), st.integers(0, 5),
                      st.sampled_from(["", "n"]), st.booleans(),
                      _nested_cmds(depth - 1)),
            st.tuples(st.just("cancel"), st.integers(0, 63)),
            st.just(("stop",)),
        ),
        max_size=3,
    )


TOP_CMDS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.integers(0, 40),
                  st.sampled_from(["", "a", "b"]), st.booleans(),
                  _nested_cmds(2)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.just(("cancel_none",)),
    ),
    min_size=1, max_size=40,
)


@given(TOP_CMDS)
@settings(max_examples=200, deadline=None)
def test_dispatch_streams_identical(commands):
    obj = Script(EventQueue(), commands).run()
    flat = Script(FlatEventQueue(), commands).run()
    assert obj == flat


@given(TOP_CMDS, st.integers(0, 60))
@settings(max_examples=100, deadline=None)
def test_dispatch_streams_identical_with_until(commands, until):
    obj_q, flat_q = EventQueue(), FlatEventQueue()
    obj_s, flat_s = Script(obj_q, commands), Script(flat_q, commands)
    for cmd in commands:
        obj_s.apply(cmd)
        flat_s.apply(cmd)
    obj_q.clear_stop()
    flat_q.clear_stop()
    assert obj_q.run(until=until) == flat_q.run(until=until)
    assert obj_s.log == flat_s.log
    assert obj_q.now == flat_q.now
    # resuming past the clamp stays identical too
    assert obj_q.run() == flat_q.run()
    assert obj_s.log == flat_s.log


@given(TOP_CMDS)
@settings(max_examples=100, deadline=None)
def test_executed_and_clock_agree(commands):
    obj_q, flat_q = EventQueue(), FlatEventQueue()
    obj_log = Script(obj_q, commands).run()
    flat_log = Script(flat_q, commands).run()
    assert obj_log == flat_log
    assert obj_q.executed == flat_q.executed
    assert obj_q.now == flat_q.now
    assert len(obj_q) == len(flat_q)


@given(st.integers(1, 30), st.integers(0, 29))
@settings(max_examples=60, deadline=None)
def test_stale_handles_never_cancel_later_events(n, victim):
    """Handle discipline: after an event fires, its handle is dead.

    The object kernel drops the fired entry (the held handle is the
    last reference to it); the flat kernel retires seqs forever.
    Either way, cancelling a handle
    whose event already ran must never kill a *different*, later event
    — here every cancel targets an already-fired handle, so all n
    events of the second wave must still run on both backends.
    """
    for queue in (EventQueue(), FlatEventQueue()):
        fired = []
        first_wave = [queue.schedule(i, lambda i=i: fired.append(i), "w1")
                      for i in range(n)]
        queue.run()
        assert len(fired) == n
        # second wave, then stale-cancel a first-wave handle
        fired.clear()
        for i in range(n):
            queue.schedule(i + 1, lambda i=i: fired.append(i), "w2")
        queue.cancel(first_wave[victim % n])
        queue.run()
        assert len(fired) == n, (
            f"{type(queue).__name__}: a stale handle cancelled a "
            f"later event"
        )


@given(st.integers(0, 20), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_cancel_then_requeue_same_slot(a, b):
    """Cancel an event, schedule a replacement at the same cycle: only
    the replacement fires, on both backends."""
    logs = []
    for queue in (EventQueue(), FlatEventQueue()):
        log = []
        h = queue.schedule(a, lambda: log.append("old"), "old")
        queue.cancel(h)
        queue.cancel(h)  # double-cancel is a no-op
        queue.schedule(a, lambda: log.append("new"), "new")
        queue.schedule(b, lambda: log.append("other"), "other")
        queue.run()
        logs.append((log, queue.now, queue.executed))
    assert logs[0] == logs[1]
    assert "old" not in logs[0][0]
