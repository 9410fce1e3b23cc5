"""Property tests: ``EventQueue`` is indistinguishable from its definition.

Hypothesis drives the queue and :class:`ModelQueue` — the specification
written down as code — through identical random command scripts:
schedule (zero and positive delays, labelled and not), cancel (live,
already-fired, double, None), nested scheduling from inside handlers,
requeue-after-cancel, stop requests.  The full dispatch stream
``(cycle, tag, payload)`` must be identical, event for event, in order.

Also pinned here: the handle discipline.  The queue's handle is the
heap entry itself (a plain list, never reused by the queue) and
cancelling is lazy; the model removes a cancelled entry at once.  Both
must agree on the *observable* consequence — a stale handle (its event
already fired or cancelled) can never cancel a later event.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import EventQueue


class ModelQueue:
    """The definition, not a second implementation: pending events in a
    plain list, the next one is the minimum ``(time, seq)``, a cancelled
    one is removed on the spot.  No heap, no lazy deletion."""

    def __init__(self):
        self.now = self.executed = self._seq = 0
        self.stop_requested = False
        self._pending = []  # [time, seq, fn]; seq is unique

    def schedule(self, delay, fn, label=""):
        self._seq += 1
        entry = [self.now + delay, self._seq, fn]
        self._pending.append(entry)
        return entry

    def cancel(self, handle):
        if handle in self._pending:
            self._pending.remove(handle)

    def request_stop(self):
        self.stop_requested = True

    def clear_stop(self):
        self.stop_requested = False

    def __len__(self):
        return len(self._pending)

    def run(self, until=None):
        while self._pending and not self.stop_requested:
            entry = min(self._pending, key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                self.now = until
                break
            self._pending.remove(entry)
            self.now = entry[0]
            self.executed += 1
            entry[2]()
        return self.now


class Script:
    """Replays one random command list against one queue."""

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
            _, delay, label, nested = cmd
            self._tags += 1
            tag = self._tags
            fn = lambda tag=tag, nested=nested: self._fire(tag, nested)
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
                      st.sampled_from(["", "n"]),
                      _nested_cmds(depth - 1)),
            st.tuples(st.just("cancel"), st.integers(0, 63)),
            st.just(("stop",)),
        ),
        max_size=3,
    )


TOP_CMDS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.integers(0, 40),
                  st.sampled_from(["", "a", "b"]),
                  _nested_cmds(2)),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.just(("cancel_none",)),
    ),
    min_size=1, max_size=40,
)


@given(TOP_CMDS)
@settings(max_examples=200, deadline=None)
def test_dispatch_streams_identical(commands):
    real = Script(EventQueue(), commands).run()
    model = Script(ModelQueue(), commands).run()
    assert real == model


@given(TOP_CMDS, st.integers(0, 60))
@settings(max_examples=100, deadline=None)
def test_dispatch_streams_identical_with_until(commands, until):
    real_q, model_q = EventQueue(), ModelQueue()
    real_s, model_s = Script(real_q, commands), Script(model_q, commands)
    for cmd in commands:
        real_s.apply(cmd)
        model_s.apply(cmd)
    real_q.clear_stop()
    model_q.clear_stop()
    assert real_q.run(until=until) == model_q.run(until=until)
    assert real_s.log == model_s.log
    assert real_q.now == model_q.now
    # resuming past the clamp stays identical too
    assert real_q.run() == model_q.run()
    assert real_s.log == model_s.log


@given(TOP_CMDS)
@settings(max_examples=100, deadline=None)
def test_executed_and_clock_agree(commands):
    real_q, model_q = EventQueue(), ModelQueue()
    real_log = Script(real_q, commands).run()
    model_log = Script(model_q, commands).run()
    assert real_log == model_log
    assert real_q.executed == model_q.executed
    assert real_q.now == model_q.now
    assert len(real_q) == len(model_q)


@given(st.integers(1, 30), st.integers(0, 29))
@settings(max_examples=60, deadline=None)
def test_stale_handles_never_cancel_later_events(n, victim):
    """Handle discipline: after an event fires, its handle is dead.

    The queue drops the fired entry (the held handle is the last
    reference to it); the model has already removed it.  Either way,
    cancelling a handle whose event already ran must never kill a
    *different*, later event — here every cancel targets an
    already-fired handle, so all n events of the second wave must still
    run on both.
    """
    for queue in (EventQueue(), ModelQueue()):
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
    the replacement fires, on the queue as on the model."""
    logs = []
    for queue in (EventQueue(), ModelQueue()):
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
