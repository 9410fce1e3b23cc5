"""Conditional Fences — the second §8 related-work baseline.

An **extension** to the paper's evaluated set.  Per Lin, Nagarajan &
Gupta (PACT'10), fences are statically classified into *associate*
groups — fences that could form a dynamic fence group.  At runtime a
fence consults a **centralized table**: if no associate is currently
executing, the fence imposes no ordering delay at all (an SCV needs a
cycle, and a cycle needs a concurrent associate); otherwise it stalls
conventionally until the associate completes.

We model the conservative classification (every fence is everyone
else's associate — a compiler would refine this) and the centralized
table the paper criticizes: each fence pays a round trip to the table
tile, and the table itself serializes check-and-register, which is
what makes the scheme SCV-free.

Differences from the paper's wfs, visible in the extension bench:
the common (uncontended) case still pays the table round trip, and the
centralized structure is exactly the kind of global hardware the
asymmetric designs exist to avoid.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.common.params import FenceDesign
from repro.fences.base import FencePolicy


class CFenceTable:
    """The centralized associate table (one per machine).

    ``active`` maps core id -> the store id its executing fence waits
    on.  Registration/clearing happen inside single events, so two
    concurrent fences can never both observe an empty table.
    """

    def __init__(self):
        self.active: Dict[int, int] = {}
        self._waiters: List[Callable[[], None]] = []

    def register(self, core_id: int, store_id: int) -> None:
        self.active[core_id] = store_id

    def clear(self, core_id: int) -> None:
        self.active.pop(core_id, None)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter()

    def associates_of(self, core_id: int) -> List[int]:
        return [c for c in self.active if c != core_id]

    def wait(self, callback: Callable[[], None]) -> None:
        self._waiters.append(callback)


def table_for(machine) -> CFenceTable:
    table = getattr(machine, "_cfence_table", None)
    if table is None:
        table = machine._cfence_table = CFenceTable()
    return table


class _CFence:
    """One executing C-fence: check the table, wait if an associate is
    executing, then charge the stall and resume the core.

    The bound methods are the continuations handed to the event queue,
    the drain wait and the table, so a fence costs one small record that
    dies by reference count — no closure waiting on itself for the
    cyclic collector.
    """

    __slots__ = ("core", "table", "resume", "t0", "trip")

    def __init__(self, core, table: CFenceTable,
                 resume: Callable[[], None], trip: int):
        self.core = core
        self.table = table
        self.resume = resume
        self.t0 = core.queue.now
        self.trip = trip

    def at_table(self) -> None:
        core, table = self.core, self.table
        associates = table.associates_of(core.core_id)
        if associates:
            core.stats.cfence_stalls += 1
        else:
            # no associate executing: no ordering delay needed.
            # Register until the pre-fence stores drain so a later
            # associate sees us.
            last_store = core.wb.newest_store_id()
            if last_store:
                table.register(core.core_id, last_store)
                core.register_cfence_clear(last_store, table)
            core.stats.cfence_skips += 1
        if core.tracer is not None:
            core.tracer.cfence_decision(core.core_id, not associates)
        if associates:
            # an associate executes: behave conventionally — drain
            # the write buffer, then wait for the associates to finish.
            core._wait_for_drain(self.wait_clear)
        else:
            self.finish()

    def wait_clear(self) -> None:
        if self.table.associates_of(self.core.core_id):
            self.table.wait(self.wait_clear)
            return
        self.finish()

    def finish(self) -> None:
        core = self.core
        charge = (core.queue.now - self.t0) + self.trip
        core.stats.add_fence_stall(core.core_id, charge)
        if core.tracer is not None:
            core.tracer.cfence_charge(core.core_id, charge)
        core.queue.schedule(self.trip, self.resume, "cfence.reply")


class CFencePolicy(FencePolicy):
    design = FenceDesign.CFENCE
    conventional_sf = False  # custom_strong_fence replaces the stall

    def custom_strong_fence(self, resume: Callable[[], None]) -> None:
        """Replace the conventional stall with the C-fence protocol."""
        core = self.core
        # round trip to the centralized table's tile (tile 0)
        from repro.mem.messages import Msg
        trip = core.l1.noc.latency(core.core_id, 0, Msg.GETS)
        fence = _CFence(core, table_for(core.machine), resume, trip)
        core.queue.schedule(trip, fence.at_table, "cfence.check")
