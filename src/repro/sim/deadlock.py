"""Global no-progress watchdog.

The naive global-state-free weak fence (paper Fig. 3a) deadlocks: every
core's pre-fence write keeps bouncing off another core's Bypass Set, so
the event queue never drains (bounce retries are events) yet no thread
commits another operation.  :meth:`Watchdog.check`, armed by
``Machine.run`` on ``EventQueue.every``, samples total committed ops;
if a full period passes with live threads and zero progress it raises
:class:`~repro.common.errors.DeadlockError` naming the blocked cores —
the observable symptom the W+ design exists to recover from.

Before raising, the watchdog attaches :func:`snapshot_diagnostics` —
the machine's post-mortem bundle (per-core write-buffer and Bypass-Set
contents, in-flight events, the tail of the trace when a tracer is
attached) — to the error; when the machine has a ``diag_dir`` the
bundle is also written to a JSON artifact so a hung chaos run leaves
evidence on disk.  A sanitizer's first violation carries the same one.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.common.errors import DeadlockError

#: trace-tail length captured into the diagnostic bundle
_TRACE_TAIL = 64
#: cap on in-flight events listed in the bundle
_MAX_EVENTS = 128


class Watchdog:
    """Progress checker over a machine's cores."""

    def __init__(self, machine, interval: int):
        self.machine = machine
        self.interval = interval
        self._last_progress = -1

    def check(self) -> bool:
        """Raise on a period without progress; return whether any core
        is still live (False stands the periodic check down)."""
        machine = self.machine
        progress = sum(
            core.ops_committed + core.stores_merged for core in machine.cores
        )
        live = _live_cores(machine)
        if live and progress == self._last_progress:
            blocked = self._describe(live)
            diagnostics = snapshot_diagnostics(machine)
            path = write_bundle(machine, "deadlock", diagnostics)
            raise DeadlockError(
                "no thread progressed for "
                f"{self.interval} cycles; blocked cores: {blocked}",
                blocked_cores=live,
                diagnostics=diagnostics,
                diagnostics_path=path,
            )
        self._last_progress = progress
        return bool(live)

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


def _live_cores(machine) -> list:
    # a finished thread with a stuck write buffer is still blocked
    # (its stores must merge before the run is architecturally done)
    return [
        core.core_id for core in machine.cores
        if not (core.finished and core.wb.empty)
    ]


def snapshot_diagnostics(machine) -> dict:
    """JSON-serializable post-mortem picture of *machine*."""
    live = _live_cores(machine)
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


def write_bundle(machine, prefix: str, diagnostics: dict) -> Optional[str]:
    """Write *diagnostics* to ``<prefix>_<design>_c<cycle>_s<seed>.json``
    in the machine's ``diag_dir``; returns the path, or None when the
    machine has no ``diag_dir``."""
    diag_dir = machine.diag_dir
    if not diag_dir:
        return None
    os.makedirs(diag_dir, exist_ok=True)
    design = machine.params.fence_design.value
    path = os.path.join(
        diag_dir,
        f"{prefix}_{design}_c{machine.queue.now}_s{machine.seed}.json",
    )
    with open(path, "w") as fh:
        json.dump(diagnostics, fh, indent=1, sort_keys=True)
    return path
