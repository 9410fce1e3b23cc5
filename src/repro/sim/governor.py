"""Resource-governed runs: budgets that cut off gracefully.

A :class:`RunBudget` bounds a single :meth:`Machine.run` by wall-clock
seconds and/or events.  ``Machine.run`` arms it (:meth:`RunBudget.arm`)
as a check on ``EventQueue.every``, after the watchdog and the
sanitizer; on breach the check records the reason and asks the queue to
stop.  The run then unwinds normally and returns a
:class:`~repro.sim.machine.SimResult` marked ``degraded`` with the
breach reason.  A governed run can therefore never hang or be
hard-killed mid-state: every cutoff flows through the ordinary
end-of-run path (stats, artifacts, result rows).

The events counted are those *scheduled* since the budget was armed,
its own checks included (not those executed), read at each check: a
run stops at the first check at or past the ceiling.

A budget is a value: the command that starts a run sets it (``repro
run --max-wall-secs/--max-events``, ``repro synth --max-wall-secs``,
``repro farm submit --max-events``) and hands it down; a farm job
carries it in its config, so it is part of the job's content key.
Nothing here reads the environment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

#: cycles between budget checks; cheap (one clock read), so a
#: tight-ish cadence keeps overshoot small without touching the hot path
CHECK_INTERVAL_CYCLES = 2_000


@dataclass(frozen=True)
class RunBudget:
    """Resource ceilings for one simulation run (None = unlimited).

    *max_events* bounds the events scheduled on the queue from the
    moment the budget is armed (see the module docstring)."""

    max_wall_secs: Optional[float] = None
    max_events: Optional[int] = None

    @property
    def enabled(self) -> bool:
        return self.max_wall_secs is not None or self.max_events is not None

    def arm(self, queue, on_breach: Callable[[str], None]):
        """Check this budget on *queue* every ``CHECK_INTERVAL_CYCLES``.

        On a breach the check hands the reason to *on_breach*, requests
        a stop and stands down.  Returns the ``EventQueue.every``
        handle."""
        start_seq = queue._seq
        start_wall = time.monotonic()

        def check() -> bool:
            used = queue._seq - start_seq
            elapsed = time.monotonic() - start_wall
            if self.max_events is not None and used >= self.max_events:
                reason = f"event budget exhausted ({used} >= {self.max_events})"
            elif (self.max_wall_secs is not None
                  and elapsed >= self.max_wall_secs):
                reason = (f"wall-clock budget exhausted "
                          f"({elapsed:.1f}s >= {self.max_wall_secs}s)")
            else:
                return True
            on_breach(reason)
            queue.request_stop()
            return False

        return queue.every(CHECK_INTERVAL_CYCLES, check, "governor")
