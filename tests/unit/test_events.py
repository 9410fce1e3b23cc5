"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common.errors import SimulatorError
from repro.common.events import EventQueue


def test_events_fire_in_time_order():
    q = EventQueue()
    fired = []
    q.schedule(10, lambda: fired.append("b"))
    q.schedule(5, lambda: fired.append("a"))
    q.schedule(20, lambda: fired.append("c"))
    q.run()
    assert fired == ["a", "b", "c"]
    assert q.now == 20


def test_same_cycle_events_fire_in_schedule_order():
    q = EventQueue()
    fired = []
    for i in range(5):
        q.schedule(7, lambda i=i: fired.append(i))
    q.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    q = EventQueue()
    with pytest.raises(SimulatorError):
        q.schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    q = EventQueue()
    fired = []
    ev = q.schedule(5, lambda: fired.append("x"))
    q.schedule(3, lambda: fired.append("y"))
    q.cancel(ev)
    q.run()
    assert fired == ["y"]


def test_cancel_none_is_a_noop():
    q = EventQueue()
    q.cancel(None)


def test_events_scheduled_during_execution():
    q = EventQueue()
    fired = []

    def first():
        fired.append("first")
        q.schedule(5, lambda: fired.append("nested"))

    q.schedule(1, first)
    q.run()
    assert fired == ["first", "nested"]
    assert q.now == 6


def test_run_until_stops_clock_at_limit():
    q = EventQueue()
    fired = []
    q.schedule(5, lambda: fired.append("a"))
    q.schedule(50, lambda: fired.append("b"))
    q.run(until=10)
    assert fired == ["a"]
    assert q.now == 10
    q.run()
    assert fired == ["a", "b"]


def test_stop_when_predicate():
    """A self-rescheduling chain ends where a handler's own condition
    calls ``request_stop()`` — here inside the third tick."""
    q = EventQueue()
    count = []

    def tick():
        count.append(1)
        q.schedule(1, tick)
        if len(count) >= 3:
            q.request_stop()

    q.schedule(0, tick)
    q.run()
    assert len(count) == 3


def test_schedule_at_absolute_time():
    q = EventQueue()
    fired = []
    q.schedule(3, lambda: q.schedule_at(10, lambda: fired.append(q.now)))
    q.run()
    assert fired == [10]


def test_len_counts_pending_not_cancelled():
    q = EventQueue()
    e1 = q.schedule(1, lambda: None)
    q.schedule(2, lambda: None)
    assert len(q) == 2
    q.cancel(e1)
    assert len(q) == 1


def test_empty_and_peek():
    q = EventQueue()
    assert q.empty()
    assert q.peek_time() is None
    q.schedule(4, lambda: None)
    assert not q.empty()
    assert q.peek_time() == 4


def test_pending_events_reports_live_labelled_times():
    q = EventQueue()
    q.schedule(4, lambda: None, "keep")
    dead = q.schedule(6, lambda: None, "dead")
    q.schedule(9, lambda: None)  # unlabelled
    q.cancel(dead)
    assert sorted(q.pending_events()) == [(4, "keep"), (9, "")]


def test_unsafe_schedule_at_plants_past_events():
    q = EventQueue()
    q.schedule(10, lambda: None, "future")
    q.unsafe_schedule_at(-5, lambda: None, "ghost")
    assert q.peek_time() == -5
    assert (-5, "ghost") in q.pending_events()


def test_step_runs_one_event_and_advances_clock():
    q = EventQueue()
    fired = []
    q.schedule(2, lambda: fired.append("a"))
    q.schedule(5, lambda: fired.append("b"))
    assert q.step()
    assert (fired, q.now) == (["a"], 2)
    assert q.step()
    assert (fired, q.now) == (["a", "b"], 5)
    assert not q.step()  # drained


def test_step_skips_cancelled_events():
    q = EventQueue()
    fired = []
    ev = q.schedule(1, lambda: fired.append("x"))
    q.schedule(2, lambda: fired.append("y"))
    q.cancel(ev)
    assert q.step()
    assert fired == ["y"]


def test_event_layout():
    """A handle is the heap entry itself: ``[time, seq, fn, label]``,
    a plain list, and cancelling clears slot 2."""
    q = EventQueue()
    fn = lambda: None  # noqa: E731
    ev = q.schedule(3, fn, label="test.ev")
    assert type(ev) is list
    assert ev == [3, 1, fn, "test.ev"]
    assert q.pending_events() == [(3, "test.ev")]
    q.cancel(ev)
    assert ev[2] is None
    assert q.pending_events() == []
    q.cancel(None)  # tolerated


def test_executed_counter_tracks_dispatches():
    q = EventQueue()
    for _ in range(4):
        q.schedule(1, lambda: None)
    cancelled = q.schedule(1, lambda: None)
    q.cancel(cancelled)
    q.run()
    assert q.executed == 4


def test_executed_is_current_inside_handlers():
    """A handler that reads ``executed`` sees the event being
    dispatched already counted."""
    q = EventQueue()
    seen = []
    for _ in range(3):
        q.schedule(1, lambda: seen.append(q.executed))
    q.run()
    assert seen == [1, 2, 3]


def test_exception_in_handler_leaves_consistent_state():
    """An exception propagates with now/executed already published and
    the remaining events intact."""
    q = EventQueue()
    fired = []

    def boom():
        raise RuntimeError("handler bug")

    q.schedule(2, lambda: fired.append("a"))
    q.schedule(4, boom)
    q.schedule(6, lambda: fired.append("b"))
    with pytest.raises(RuntimeError, match="handler bug"):
        q.run()
    assert fired == ["a"]
    assert q.now == 4
    assert q.executed == 2  # boom itself was dispatched
    q.run()  # the queue remains usable
    assert fired == ["a", "b"]


# ---------------------------------------------------------------------------
# wake-on-event (request_stop / clear_stop)
# ---------------------------------------------------------------------------


def test_request_stop_halts_before_next_event():
    q = EventQueue()
    fired = []
    q.schedule(1, lambda: (fired.append("a"), q.request_stop()))
    q.schedule(2, lambda: fired.append("b"))
    q.run()
    assert fired == ["a"]
    assert q.stop_requested


def test_clear_stop_resumes_where_it_left_off():
    q = EventQueue()
    fired = []
    q.schedule(1, lambda: (fired.append("a"), q.request_stop()))
    q.schedule(2, lambda: fired.append("b"))
    q.run()
    assert fired == ["a"]
    # wake-after-deschedule: clearing the flag and re-running resumes
    # with the remaining events, clock monotone
    q.clear_stop()
    q.run()
    assert fired == ["a", "b"]
    assert q.now == 2


def test_stop_requested_midbatch_preserves_remaining_events():
    """Stopping during a same-cycle batch must not lose batch-mates."""
    q = EventQueue()
    fired = []
    q.schedule(3, lambda: (fired.append("a"), q.request_stop()))
    q.schedule(3, lambda: fired.append("b"))
    q.run()
    assert fired == ["a"]
    q.clear_stop()
    q.run()
    assert fired == ["a", "b"]


# ---------------------------------------------------------------------------
# handle lifetime (entries are never reused by the queue)
# ---------------------------------------------------------------------------


def test_held_handle_is_not_recycled():
    """A handle the caller kept must stay valid (cancellable) after it
    fires — it never aliases a later event."""
    q = EventQueue()
    fired = []
    held = q.schedule(1, lambda: fired.append("held"))
    # a burst of dropped-handle events, scheduled before and after the
    # held one fires
    for i in range(16):
        q.schedule(2, lambda i=i: fired.append(i))
    q.run(until=1)
    assert fired == ["held"]
    for i in range(16, 32):
        q.schedule(1, lambda i=i: fired.append(i))
    # the held entry must not have become a pending event: cancelling
    # it now must not cancel anything scheduled above
    q.cancel(held)
    q.run()
    assert fired == ["held"] + list(range(32))


def test_recycled_slots_preserve_fifo_order():
    """Churn (whatever the allocator hands back for the next entry)
    must never perturb same-cycle FIFO order."""
    q = EventQueue()
    order = []
    # phase 1: fire-and-drop events, freed as they fire
    for i in range(8):
        q.schedule(1, lambda: None)
    q.run()
    # phase 2: new entries must still dispatch in schedule order
    for i in range(16):
        q.schedule(5, lambda i=i: order.append(i))
    q.run()
    assert order == list(range(16))


def test_fire_and_drop_leaves_nothing_behind():
    """The queue owns no container that grows with fired events."""
    q = EventQueue()
    count = [0]

    def tick():
        count[0] += 1

    for i in range(10_000):
        q.schedule(i % 7, tick)
        if i % 100 == 99:
            q.run()
    q.run()
    assert count[0] == q.executed == 10_000
    assert len(q._heap) == 0
    assert not hasattr(q, "_free")


def test_cancel_after_fire_is_harmless():
    q = EventQueue()
    fired = []
    ev = q.schedule(1, lambda: fired.append("x"))
    q.run()
    q.cancel(ev)  # no-op: already fired
    q.schedule(1, lambda: fired.append("y"))
    q.run()
    assert fired == ["x", "y"]


def test_every_fires_on_its_grid_until_the_check_returns_false():
    q = EventQueue()
    fired = []

    def check():
        fired.append(q.now)
        return len(fired) < 3

    q.every(10, check, "tick")
    q.schedule(100, lambda: None)
    q.run()
    assert fired == [10, 20, 30]
    # only False stands it down: None (a check with no verdict) goes on
    q.every(5, lambda: fired.append(q.now), "tick")
    q.run(until=115)
    assert fired[3:] == [105, 110, 115]


def test_every_is_one_event_per_firing_under_its_label():
    q = EventQueue()
    handle = q.every(7, lambda: True, "tick")
    assert q.pending_events() == [(7, "tick")]
    q.run(until=14)
    assert q.pending_events() == [(21, "tick")] and q._seq == 3
    handle.stop()
    assert q.pending_events() == []


def test_every_stops_when_the_check_raises_and_stop_is_idempotent():
    q = EventQueue()

    def check():
        raise RuntimeError("boom")

    handle = q.every(3, check, "tick")
    later = q.schedule(9, lambda: None)
    with pytest.raises(RuntimeError):
        q.run()
    assert q.pending_events() == [(9, "")]
    handle.stop()
    handle.stop()
    assert later[2] is not None  # stop() reached nothing but its own


# ---------------------------------------------------------------------------
# property test: dispatch is a stable sort by (cycle, insertion seq)
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(
    delays=st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=60),
    cancel_mask=st.lists(st.booleans(), min_size=60, max_size=60),
)
def test_dispatch_is_stable_sort_by_cycle_then_seq(delays, cancel_mask):
    """Random schedules dispatch exactly as the stable sort of
    (absolute cycle, insertion order), with cancelled events removed."""
    q = EventQueue()
    fired = []
    handles = []
    for i, d in enumerate(delays):
        handles.append(q.schedule(d, lambda i=i: fired.append(i)))
    cancelled = set()
    for i, (h, kill) in enumerate(zip(handles, cancel_mask)):
        if kill:
            q.cancel(h)
            cancelled.add(i)
    q.run()
    expected = [
        i for _, i in sorted(
            (d, i) for i, d in enumerate(delays) if i not in cancelled
        )
    ]
    assert fired == expected


@settings(max_examples=100, deadline=None)
@given(
    spec=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10),   # outer delay
                  st.integers(min_value=0, max_value=10)),  # nested delay
        min_size=1, max_size=25,
    ),
)
def test_nested_schedules_keep_global_order(spec):
    """Events scheduled from inside callbacks obey the same (cycle,
    seq) order as everything else — including same-cycle re-entry."""
    q = EventQueue()
    fired = []
    expected_times = []

    def make_nested(tag, t_abs):
        def nested():
            fired.append((q.now, tag))
        return nested

    def make_outer(i, nested_delay):
        def outer():
            t_nested = q.now + nested_delay
            expected_times.append((q.now, ("outer", i)))
            expected_times.append((t_nested, ("nested", i)))
            fired.append((q.now, ("outer", i)))
            q.schedule(nested_delay, make_nested(("nested", i), t_nested))
        return outer

    for i, (outer_delay, nested_delay) in enumerate(spec):
        q.schedule(outer_delay, make_outer(i, nested_delay))
    q.run()
    # every event fired at its scheduled absolute time...
    assert sorted(fired) == sorted(expected_times)
    # ...and the dispatch sequence is non-decreasing in time
    times = [t for t, _ in fired]
    assert times == sorted(times)
