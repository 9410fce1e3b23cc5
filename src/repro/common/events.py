"""Discrete-event simulation kernel.

A single :class:`EventQueue` drives the whole machine: cores, caches,
directory banks and the NoC all schedule callbacks on it.  Events at the
same cycle fire in scheduling order (a monotone sequence number breaks
ties), which makes executions deterministic for a given workload seed.

Hot-path layout: a scheduled event is a plain list ``[time, seq, fn,
label]`` and is its own heap entry, so ``heapq`` orders events with
C-level elementwise comparison (``seq`` is unique, so ``fn`` is never
compared) instead of calling a Python ``__lt__`` per sift step.
Cancelling is lazy deletion (``fn`` set to None; the queue discards the
entry when it surfaces).  Dispatch is batched per cycle.  Fired entries
are simply dropped: CPython keeps its own free list of list objects, so
a fresh four-slot literal per event costs less than any recycling
scheme written in Python (one that asked the reference count whether a
handle was still held was measured slower and removed — docs/PERF.md,
"The hot path").

(A 16-slot timing wheel in front of the heap was prototyped and
benchmarked ~10% *slower*: with typical heap depths of 10–20 events,
C-implemented ``heappush``/``heappop`` beat the Python-level slot-scan
and FIFO bookkeeping a wheel needs.  Revisit only if event counts per
cycle grow by an order of magnitude.)
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.common.errors import SimulatorError


class EventQueue:
    """Priority queue of simulation events with a global clock."""

    def __init__(self):
        self._heap: List[list] = []
        self._seq = 0
        self.now = 0
        #: number of events executed (exposed for test/benchmark stats).
        self.executed = 0
        #: cooperative stop flag raised by ``request_stop``; checked
        #: between events.
        self.stop_requested = False

    def schedule(self, delay: int, fn: Callable[[], None], label: str = "") -> list:
        """Schedule *fn* to run ``delay`` cycles from now.

        *delay* must be a non-negative integer — the clock is integral
        cycles and callers quantize (``ceil``) fractional latencies
        before scheduling.
        """
        if delay < 0:
            raise SimulatorError(f"cannot schedule in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        ev = [self.now + delay, seq, fn, label]
        heappush(self._heap, ev)
        return ev

    def schedule_at(self, time: int, fn: Callable[[], None], label: str = "") -> list:
        """Schedule *fn* at absolute cycle *time* (>= now)."""
        return self.schedule(time - self.now, fn, label)

    @property
    def seq(self) -> int:
        """The sequence number the newest scheduled event got."""
        return self._seq

    def restore(self, now: int, seq: int) -> None:
        """Set the clock and the sequence counter: a restored machine
        goes on with the event stream where its capture left it
        (``executed`` still counts only what this queue dispatches)."""
        self.now, self._seq = now, seq

    def schedule_as(self, time: int, seq: int, fn: Callable[[], None],
                    label: str = "") -> list:
        """Schedule *fn* as the event ``(time, seq)`` a captured queue
        held: same cycle, same place among that cycle's events."""
        ev = [time, seq, fn, label]
        heappush(self._heap, ev)
        return ev

    def unsafe_schedule_at(self, time: int, fn: Callable[[], None],
                           label: str = "") -> list:
        """Schedule at an absolute time with no past-time check.

        Test/diagnostic hook (e.g. planting a behind-the-clock ghost
        event for the sanitizer's monotonicity check); never used by
        the simulator itself.
        """
        self._seq = seq = self._seq + 1
        ev = [time, seq, fn, label]
        heappush(self._heap, ev)
        return ev

    def every(self, interval: int, check: Callable[[], object],
              label: str) -> Periodic:
        """Call *check* every *interval* cycles, one event labelled
        *label* per call, until it returns False or raises or the
        returned handle is ``stop()``ped: the one periodic mechanism
        (the watchdog, the sanitizer's sweep, the run budget)."""
        return Periodic(self, interval, check, label)

    def cancel(self, handle: Optional[list]) -> None:
        """Cancel the event whose handle ``schedule`` returned (None
        is tolerated and ignored)."""
        if handle is not None:
            handle[2] = None

    def pending_events(self):
        """Live ``(time, label)`` pairs, in no particular order.

        The introspection surface for diagnostics (watchdog bundles)
        and structural checks (sanitizer horizon); replaces direct
        ``_heap`` walks.
        """
        return [(ev[0], ev[3]) for ev in self._heap if ev[2] is not None]

    def request_stop(self) -> None:
        """Ask ``run()`` to return before dispatching the next event.

        This is the wake-on-event idiom: components that know the
        machine-level stop condition (e.g. the last core going idle)
        raise the flag at the transition instead of the queue polling a
        predicate before every event.
        """
        self.stop_requested = True

    def clear_stop(self) -> None:
        self.stop_requested = False

    def empty(self) -> bool:
        self._drop_cancelled()
        return not self._heap

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)

    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        self._drop_cancelled()
        if not self._heap:
            return False
        ev = heappop(self._heap)
        if ev[0] < self.now:  # pragma: no cover - defensive
            raise SimulatorError("event queue time went backwards")
        self.now = ev[0]
        self.executed += 1
        ev[2]()
        return True

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains, *until* cycles pass, or
        the stop flag is raised.  Returns the final clock value.

        The loop dispatches all events of one cycle as a batch with the
        heap bound to a local, which is where the kernel's speedup over
        the one-``step()``-per-iteration loop comes from.
        """
        heap = self._heap
        pop = heappop
        executed = self.executed
        try:
            while True:
                if self.stop_requested:
                    break
                while heap and heap[0][2] is None:
                    pop(heap)
                if not heap:
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    self.now = until
                    break
                self.now = t
                # batched same-cycle dispatch: zero-delay events
                # scheduled by a callback join this batch in seq order.
                while heap and heap[0][0] == t:
                    fn = pop(heap)[2]
                    if fn is None:
                        continue
                    executed += 1
                    # publish before dispatch: a handler that reads
                    # ``executed`` sees itself counted.
                    self.executed = executed
                    fn()
                    if self.stop_requested:
                        return self.now
        finally:
            self.executed = executed
        return self.now

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or None if the queue is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return sum(1 for e in self._heap if e[2] is not None)


class Periodic:
    """Handle of a check armed by :meth:`EventQueue.every`."""

    def __init__(self, queue: EventQueue, interval: int, check, label: str):
        self._queue = queue
        self._interval = interval
        self._check = check
        self._label = label
        #: the check has been called at least once
        self.fired = False
        self._event = queue.schedule(interval, self._fire, label)

    def _fire(self) -> None:
        self._event = None  # fired: a check that raises leaves no handle
        self.fired = True
        if self._check() is not False:
            self._event = self._queue.schedule(
                self._interval, self._fire, self._label)

    def stop(self) -> None:
        """Cancel the next call; idempotent."""
        self._queue.cancel(self._event)
        self._event = None
