"""Global no-progress watchdog.

The naive global-state-free weak fence (paper Fig. 3a) deadlocks: every
core's pre-fence write keeps bouncing off another core's Bypass Set, so
the event queue never drains (bounce retries are events) yet no thread
commits another operation.  The watchdog samples total committed ops on
a period; if a full period passes with live threads and zero progress it
raises :class:`~repro.common.errors.DeadlockError` naming the blocked
cores — the observable symptom the W+ design exists to recover from.

Before raising, the watchdog snapshots a post-mortem diagnostic bundle
(per-core write-buffer and Bypass-Set contents, in-flight events, the
tail of the trace when a tracer is attached) onto the error; when the
machine has a ``diag_dir`` the bundle is also written to a JSON
artifact so a hung chaos run leaves evidence on disk.
"""

from __future__ import annotations

import json
import os

from repro.common.errors import DeadlockError

#: trace-tail length captured into the diagnostic bundle
_TRACE_TAIL = 64
#: cap on in-flight events listed in the bundle
_MAX_EVENTS = 128


class Watchdog:
    """Periodic progress checker over a machine's cores."""

    def __init__(self, machine, interval: int):
        self.machine = machine
        self.interval = interval
        self._last_progress = -1
        self._event = None

    def start(self) -> None:
        self._event = self.machine.queue.schedule(
            self.interval, self._tick, "watchdog"
        )

    def stop(self) -> None:
        if self._event is not None:
            self.machine.queue.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        # the event that invoked us has fired: forget it immediately so
        # stop() never cancels a dead event — whether we reschedule,
        # stand down (all cores finished), or raise below.
        self._event = None
        machine = self.machine
        progress = sum(
            core.ops_committed + core.stores_merged for core in machine.cores
        )
        # a finished thread with a stuck write buffer is still blocked
        # (its stores must merge before the run is architecturally done)
        live = [
            core.core_id
            for core in machine.cores
            if not (core.finished and core.wb.empty)
        ]
        if live and progress == self._last_progress:
            blocked = self._describe(live)
            diagnostics = self.snapshot_diagnostics(live)
            path = self._write_artifact(diagnostics)
            raise DeadlockError(
                "no thread progressed for "
                f"{self.interval} cycles; blocked cores: {blocked}",
                blocked_cores=live,
                diagnostics=diagnostics,
                diagnostics_path=path,
            )
        self._last_progress = progress
        if live:
            self._event = machine.queue.schedule(
                self.interval, self._tick, "watchdog"
            )

    def _describe(self, live) -> str:
        parts = []
        for cid in live:
            core = self.machine.cores[cid]
            state = []
            if core.wb.any_bouncing():
                state.append("store bouncing")
            if not core.bs.empty:
                state.append(f"BS holds {len(core.bs)} line(s)")
            if core.pending_fences:
                state.append(f"{len(core.pending_fences)} fence(s) incomplete")
            parts.append(f"P{cid}[{', '.join(state) or 'idle'}]")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # post-mortem diagnostics
    # ------------------------------------------------------------------

    def snapshot_diagnostics(self, live=None) -> dict:
        """JSON-serializable picture of the stuck machine."""
        machine = self.machine
        if live is None:
            live = [
                core.core_id for core in machine.cores
                if not (core.finished and core.wb.empty)
            ]
        cores = []
        for core in machine.cores:
            cores.append({
                "core": core.core_id,
                "blocked": core.core_id in live,
                "finished": core.finished,
                "recovering": core.recovering,
                "ops_committed": core.ops_committed,
                "stores_merged": core.stores_merged,
                "pending_fences": [
                    {"fence_id": pf.fence_id,
                     "last_store_id": pf.last_store_id}
                    for pf in core.pending_fences
                ],
                "wb": [
                    {"store_id": e.store_id, "word": e.word,
                     "line": e.line, "ordered": e.ordered,
                     "retries": e.retries, "bouncing": e.bouncing,
                     "issued": e.issued}
                    for e in core.wb._entries
                ],
                "bs_lines": sorted(core.bs._entries),
            })
        in_flight = [
            {"time": t, "label": label}
            for t, label in machine.queue.pending_events()[:_MAX_EVENTS]
        ]
        in_flight.sort(key=lambda e: e["time"])
        bundle = {
            "cycle": machine.queue.now,
            "design": machine.params.fence_design.value,
            "num_cores": machine.params.num_cores,
            "blocked_cores": list(live),
            "cores": cores,
            "in_flight_events": in_flight,
        }
        if machine.faults is not None:
            bundle["faults"] = {
                "plan": machine.faults.plan.to_dict(),
                "summary": machine.faults.summary(),
            }
        if machine.tracer is not None:
            bundle["trace_tail"] = [
                ev.to_dict() for ev in machine.tracer.tail(_TRACE_TAIL)
            ]
        return bundle

    def _write_artifact(self, diagnostics: dict):
        """Persist the bundle when the machine has a diag_dir set."""
        diag_dir = self.machine.diag_dir
        if not diag_dir:
            return None
        os.makedirs(diag_dir, exist_ok=True)
        design = self.machine.params.fence_design.value
        path = os.path.join(
            diag_dir,
            f"deadlock_{design}_c{self.machine.queue.now}_"
            f"s{self.machine.seed}.json",
        )
        with open(path, "w") as fh:
            json.dump(diagnostics, fh, indent=1, sort_keys=True)
        return path
