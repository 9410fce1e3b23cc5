"""Resource-governed runs: budgets that cut off gracefully.

A :class:`RunBudget` bounds a single :meth:`Machine.run` by wall-clock
seconds and/or simulated-event count.  The :class:`ResourceGovernor`
checks the budget from a self-rescheduling queue event (a pump, like
the watchdog's) and, on breach, asks the event queue to stop — the run then unwinds normally and returns a
:class:`~repro.sim.machine.SimResult` marked ``degraded`` with the
breach reason.  A governed run can therefore never hang or be
hard-killed mid-state: every cutoff flows through the ordinary
end-of-run path (stats, artifacts, result rows).

A budget is a value: the command that starts a run sets it (``repro
run --max-wall-secs/--max-events``, ``repro synth --max-wall-secs``,
``repro farm submit --max-events``) and hands it down; a farm job
carries it in its config, so it is part of the job's content key.
Nothing here reads the environment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

#: cycles between budget checks; cheap (one clock read at most), so a
#: tight-ish cadence keeps overshoot small without touching the hot path
CHECK_INTERVAL_CYCLES = 2_000


@dataclass(frozen=True)
class RunBudget:
    """Resource ceilings for one simulation run (None = unlimited)."""

    max_wall_secs: Optional[float] = None
    max_events: Optional[int] = None

    @property
    def enabled(self) -> bool:
        return self.max_wall_secs is not None or self.max_events is not None


class ResourceGovernor:
    """Enforces a :class:`RunBudget` over one ``Machine.run``."""

    def __init__(self, machine, budget: RunBudget):
        self.machine = machine
        self.budget = budget
        self.breached: Optional[str] = None
        self._start_wall = 0.0
        self._start_seq = 0
        self._event = None
        self._stopped = False

    @property
    def degraded(self) -> bool:
        return self.breached is not None

    def start(self) -> None:
        self._stopped = False
        self._start_wall = time.monotonic()
        queue = self.machine.queue
        self._start_seq = queue._seq
        self._event = queue.schedule(
            CHECK_INTERVAL_CYCLES, self._tick, "governor"
        )

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self.machine.queue.cancel(self._event)
            self._event = None

    def events_used(self) -> int:
        return self.machine.queue._seq - self._start_seq

    def _tick(self) -> None:
        self._event = None
        if self._stopped or self.breached is not None:
            return
        self.check()
        if self.breached is not None:
            return
        self._event = self.machine.queue.schedule(
            CHECK_INTERVAL_CYCLES, self._tick, "governor"
        )

    def check(self) -> Optional[str]:
        """Evaluate the budget; on breach, request a graceful stop."""
        budget = self.budget
        reason = None
        if budget.max_events is not None:
            used = self.events_used()
            if used >= budget.max_events:
                reason = f"event budget exhausted ({used} >= {budget.max_events})"
        if reason is None and budget.max_wall_secs is not None:
            elapsed = time.monotonic() - self._start_wall
            if elapsed >= budget.max_wall_secs:
                reason = (f"wall-clock budget exhausted "
                          f"({elapsed:.1f}s >= {budget.max_wall_secs}s)")
        if reason is not None:
            self.breached = reason
            self.machine.queue.request_stop()
        return reason
