"""Resource-governed runs: budgets that cut off gracefully.

A :class:`RunBudget` bounds a single :meth:`Machine.run` by wall-clock
seconds, simulated-event count, and/or RSS high-water mark.  The
:class:`ResourceGovernor` checks the budget from a self-rescheduling
queue event (a pump, like the watchdog's) and, on breach, asks the event
queue to stop — the run then unwinds normally and returns a
:class:`~repro.sim.machine.SimResult` marked ``degraded`` with the
breach reason.  A governed run can therefore never hang or be
hard-killed mid-state: every cutoff flows through the ordinary
end-of-run path (stats, artifacts, result rows).

Budgets default from the environment (``REPRO_MAX_WALL_SECS``,
``REPRO_MAX_EVENTS``, ``REPRO_MAX_RSS_MB``) so matrix subprocesses and
CI inherit them without plumbing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

#: cycles between budget checks; cheap (two syscalls at most), so a
#: tight-ish cadence keeps overshoot small without touching the hot path
DEFAULT_CHECK_INTERVAL = 2_000


def _rss_mb() -> Optional[float]:
    """The *process* RSS high-water mark in MiB (None when unavailable).

    That is the interpreter plus everything alive at the process's
    largest moment so far — one live machine, as long as finished ones
    are disposed (``Machine.dispose``) rather than left to the cyclic
    collector — and it never falls.
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on Darwin
    if os.uname().sysname == "Darwin":  # pragma: no cover - mac only
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


@dataclass(frozen=True)
class RunBudget:
    """Resource ceilings for one simulation run (None = unlimited)."""

    max_wall_secs: Optional[float] = None
    max_events: Optional[int] = None
    max_rss_mb: Optional[float] = None
    check_interval_cycles: int = DEFAULT_CHECK_INTERVAL

    @property
    def enabled(self) -> bool:
        return (self.max_wall_secs is not None
                or self.max_events is not None
                or self.max_rss_mb is not None)

    @classmethod
    def from_env(cls) -> Optional["RunBudget"]:
        """Budget from ``REPRO_MAX_*`` env vars, or None when unset."""
        wall = os.environ.get("REPRO_MAX_WALL_SECS")
        events = os.environ.get("REPRO_MAX_EVENTS")
        rss = os.environ.get("REPRO_MAX_RSS_MB")
        if not (wall or events or rss):
            return None
        return cls(
            max_wall_secs=float(wall) if wall else None,
            max_events=int(events) if events else None,
            max_rss_mb=float(rss) if rss else None,
        )


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
            self.budget.check_interval_cycles, self._tick, "governor"
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
            self.budget.check_interval_cycles, self._tick, "governor"
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
        if reason is None and budget.max_rss_mb is not None:
            rss = _rss_mb()
            if rss is not None and rss >= budget.max_rss_mb:
                reason = (f"RSS watermark exceeded "
                          f"({rss:.0f} MiB >= {budget.max_rss_mb} MiB)")
        if reason is not None:
            self.breached = reason
            self.machine.queue.request_stop()
        return reason
