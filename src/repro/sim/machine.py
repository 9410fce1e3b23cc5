"""The simulated multicore: construction, wiring and the run loop.

:class:`Machine` is the public entry point of the simulator.  Typical
use::

    from repro import Machine, MachineParams, FenceDesign

    params = MachineParams(num_cores=8).with_design(FenceDesign.WS_PLUS)
    machine = Machine(params)
    shared = ...            # allocate simulated memory via machine.alloc
    machine.spawn(thread_fn, shared=shared)   # one generator per core
    result = machine.run()
    print(result.stats.summary())

Ownership: whoever builds a machine and does not hand it back calls
:meth:`Machine.dispose` when done with it (``run_workload``,
``run_program``, the litmus helpers); ``run()`` itself never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.addr import AddressMap
from repro.common.errors import ConfigError, SimulatorError
from repro.common.events import EventQueue
from repro.common.params import FenceDesign, MachineParams
from repro.common.stats import MachineStats
from repro.core.cpu import Core
from repro.core.thread import SimThread, ThreadContext
from repro.mem.directory import DirectoryBank
from repro.mem.l1controller import L1Controller
from repro.mem.memory import MemoryImage
from repro.mem.noc import MeshNoc
from repro.runtime.alloc import Allocator
from repro.sim.deadlock import Watchdog
from repro.sim.governor import ResourceGovernor, RunBudget
from repro.sim.scv import DependenceRecorder


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    stats: MachineStats
    cycles: int
    #: all threads ran to completion (False when max_cycles cut in)
    completed: bool
    #: dependence events, when ``track_dependences`` was enabled
    events: Optional[list] = None
    #: a resource budget cut the run off — the run ended gracefully
    #: but incompletely
    degraded: bool = False
    degraded_reason: Optional[str] = None
    #: violations recorded by an attached sanitizer (warn mode; strict
    #: raises before the result is built)
    sanitizer_violations: int = 0


class Machine:
    """An N-core TSO multicore with one of the five fence designs."""

    def __init__(self, params: MachineParams, seed: int = 12345):
        self.params = params
        self.seed = seed
        self.queue = EventQueue()
        self.stats = MachineStats(params.num_cores)
        self.image = MemoryImage()
        self.noc = MeshNoc(params, self.stats)
        self.amap = AddressMap(
            params.line_bytes,
            params.word_bytes,
            params.num_banks,
            params.bank_interleave_bytes,
        )
        self.alloc = Allocator(self.amap)
        self.recorder: Optional[DependenceRecorder] = None
        if params.track_dependences:
            self.recorder = DependenceRecorder(self.image)
        #: observability (repro.obs): None unless attach_tracer() is
        #: called — every hook site guards on a cached ``tracer is
        #: None`` check, so this stays zero-cost.  Always a real Tracer
        #: or None: attach_attrib() leaves it alone.
        self.tracer = None
        #: fault injection (repro.faults): None unless attach_faults()
        #: is called — hook sites guard on ``faults is None`` exactly
        #: like the tracer, keeping the fault-free path bit-identical.
        self.faults = None
        #: runtime protocol sanitizer (repro.sanitizer): None unless
        #: attach_sanitizer() is called — same ``is None`` guard
        #: contract as the tracer/injector, so the unsanitized hot path
        #: is untouched and bit-identical to the goldens.
        self.sanitizer = None
        #: directory for watchdog post-mortem bundles (None = keep the
        #: diagnostics in memory only, attached to the DeadlockError)
        self.diag_dir = None

        self.banks: List[DirectoryBank] = [
            DirectoryBank(b, params, self.stats, self.noc, self.queue)
            for b in range(params.num_banks)
        ]
        fine_grain = params.fence_design is FenceDesign.SW_PLUS
        self.l1s: List[L1Controller] = [
            L1Controller(
                c, params, self.stats, self.noc, self.image, self.queue,
                self.amap, fine_grain_bs=fine_grain,
            )
            for c in range(params.num_cores)
        ]
        self.cores: List[Core] = [
            Core(c, params, self.stats, self.queue, self.l1s[c], self.image, self)
            for c in range(params.num_cores)
        ]
        for bank in self.banks:
            bank.controllers = self.l1s
        for l1 in self.l1s:
            l1.banks = self.banks
            l1.recorder = self.recorder
        self._spawned = 0
        #: count of cores currently done (wake-on-event stop condition);
        #: resynced at the top of run(), maintained by core_done_changed.
        self._done_cores = 0
        self._watchdog = Watchdog(self, params.watchdog_interval)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Wire a :class:`repro.obs.Tracer` into every component.

        Each component caches the tracer in its own ``tracer`` slot so
        hook sites test a local ``self.tracer is None`` — no
        machine-level indirection on the hot path.  Call before
        :meth:`run` (and before :meth:`attach_attrib`, if both).
        """
        tracer.bind(self.queue)
        self.tracer = tracer
        for core in self.cores:
            core.tracer = tracer
            core.wb.tracer = tracer
        for l1 in self.l1s:
            l1.tracer = tracer
        for bank in self.banks:
            bank.tracer = tracer
        self.noc.tracer = tracer
        if self.faults is not None:
            self.faults.tracer = tracer

    def attach_attrib(self, attrib) -> None:
        """Put a :class:`repro.obs.attrib.CycleAttribution` in the
        ``tracer`` slot of every core, write buffer and L1.

        It listens on the tracer's hook names, so the stall sites report
        to it through the guard they already have; a run with it
        perturbs no timing (pure accumulator writes).  Directory banks
        and the NoC stay unwired — nothing they report is attributed and
        their hooks are the hottest — and ``self.tracer`` stays as it
        was, so run finalization, the watchdog, the sanitizer and the
        injector never see the listener.  It takes those slots over: on
        a run that is also traced the caller passes a listener that
        forwards (``Observability`` does).  Call before :meth:`run`.
        """
        attrib.bind(self)
        for core in self.cores:
            core.tracer = core.wb.tracer = core.l1.tracer = attrib

    def attach_faults(self, injector) -> None:
        """Wire a :class:`repro.faults.FaultInjector` into every
        component (the structural mirror of :meth:`attach_tracer`).

        Each hook site tests a local ``self.faults is None``, so a run
        without an injector executes exactly the instruction stream the
        golden traces pin down.  Call before :meth:`run`.
        """
        injector.tracer = self.tracer
        self.faults = injector
        for core in self.cores:
            core.faults = injector
        for l1 in self.l1s:
            l1.faults = injector
        for bank in self.banks:
            bank.faults = injector
        self.noc.faults = injector

    def attach_sanitizer(self, sanitizer) -> None:
        """Wire a :class:`repro.sanitizer.Sanitizer` into every
        component (same shape as :meth:`attach_tracer`).

        Each hook site tests a local ``self.sanitizer is None``, so a
        run without one executes exactly the golden instruction stream.
        Call before :meth:`run`.
        """
        sanitizer.bind(self)
        self.sanitizer = sanitizer
        for core in self.cores:
            core.sanitizer = sanitizer
            core.wb.sanitizer = sanitizer
        for l1 in self.l1s:
            l1.sanitizer = sanitizer
        for bank in self.banks:
            bank.sanitizer = sanitizer

    # ------------------------------------------------------------------
    # workload setup
    # ------------------------------------------------------------------

    def spawn(self, fn: Callable, shared=None, core: Optional[int] = None) -> Core:
        """Bind generator function *fn* as the thread of the next core."""
        self._refuse_if_disposed()
        cid = self._spawned if core is None else core
        if cid >= self.params.num_cores:
            raise ConfigError(
                f"cannot spawn thread {cid}: machine has "
                f"{self.params.num_cores} cores"
            )
        ctx = ThreadContext(
            tid=cid,
            num_threads=self.params.num_cores,
            seed=self.seed * 1_000_003 + cid,
            shared=shared,
        )
        # only W+ (needs_checkpoint) ever replays a thread; other
        # designs skip the per-op replay-log bookkeeping entirely
        self.cores[cid].bind(
            SimThread(fn, ctx,
                      keep_log=self.cores[cid].policy.needs_checkpoint)
        )
        self._spawned = max(self._spawned, cid + 1)
        return self.cores[cid]

    def spawn_all(self, fn: Callable, shared=None) -> None:
        """Run *fn* on every core."""
        for cid in range(self.params.num_cores):
            self.spawn(fn, shared=shared, core=cid)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _all_done(self) -> bool:
        return all(
            (core.thread is None or core.finished) and core.wb.empty
            for core in self.cores
        )

    def core_done_changed(self, done: bool) -> None:
        """Wake-on-event stop: a core crossed its done/not-done boundary.

        Cores report the transition (thread finished + write buffer
        drained, or the reverse on a W+ rollback) instead of the event
        loop polling ``_all_done`` before every event; when the last
        core goes idle the queue's stop flag is raised and ``run``
        returns at exactly the same event boundary the poll would have
        caught.
        """
        if done:
            self._done_cores += 1
            if self._done_cores == len(self.cores):
                self.queue.request_stop()
        else:
            self._done_cores -= 1
            self.queue.clear_stop()

    def thread_finished(self, core: Core) -> None:
        """Callback from a core whose thread ran out of operations."""
        core._kick_drain()  # flush any leftover buffered stores

    def run(self, max_cycles: Optional[int] = None,
            budget: Optional[RunBudget] = None) -> SimResult:
        """Run to completion (or *max_cycles* / params.max_cycles).

        *budget* bounds the run by wall-clock time and/or event count;
        a breach stops the queue gracefully and the result comes back
        ``degraded`` with the reason — never a hang or a hard kill.
        """
        self._refuse_if_disposed()
        limit = max_cycles or self.params.max_cycles or None
        for core in self.cores:
            core.start()
        # seed the done-core counter; cores keep it current from here
        n_done = 0
        for core in self.cores:
            done = (core.thread is None or core.finished) and core.wb.empty
            core._done = done
            n_done += done
        self._done_cores = n_done
        self.queue.clear_stop()
        if n_done == len(self.cores):
            self.queue.request_stop()
        governor = None
        if budget is not None and budget.enabled:
            governor = ResourceGovernor(self, budget)
        self._watchdog.start()
        if self.sanitizer is not None:
            self.sanitizer.start()
        if governor is not None:
            governor.start()
        try:
            self.queue.run(until=limit)
        finally:
            # always executed — including when a workload callable or a
            # strict sanitizer raises — so no run can leak a live
            # watchdog or a self-rescheduling sampling pump into the
            # next test.  The pumps must also be down *before* the
            # quiesce drain below: a rescheduling pump event would keep
            # the queue alive to exactly the drain horizon and perturb
            # stats.cycles.
            self._watchdog.stop()
            if self.sanitizer is not None:
                self.sanitizer.stop()
            if governor is not None:
                governor.stop()
        completed = self._all_done()
        if completed:
            # drain in-flight protocol events (writebacks, GRT
            # withdrawals, late replies) so post-run state inspection
            # sees a quiesced machine; bounded in case of stray timers.
            self.queue.clear_stop()
            self.queue.run(until=self.queue.now + 10_000)
        elif any(core.recovering for core in self.cores):
            # the cycle budget ran out while a W+ rollback was still
            # draining its write buffer: the run is incomplete because
            # of the budget, not a hang — flag it so callers can tell.
            self.stats.cutoff_in_recovery = True
        if self.sanitizer is not None:
            # one closing sweep over the quiesced (or cut-off) state;
            # raises in strict mode like any in-run check.
            self.sanitizer.final_check()
        self.stats.cycles = self.queue.now
        if self.tracer is not None:
            self.tracer.finalize()
            # per-core coarse breakdown instants: offline attribution
            # replay reconciles its fine leaves against these
            self.tracer.core_summaries(self.stats)
        events = self.recorder.events if self.recorder else None
        degraded_reason = governor.breached if governor is not None else None
        violations = (
            len(self.sanitizer.violations) + self.sanitizer.dropped
            if self.sanitizer is not None else 0
        )
        return SimResult(
            stats=self.stats,
            cycles=self.queue.now,
            completed=completed,
            events=events,
            degraded=degraded_reason is not None,
            degraded_reason=degraded_reason,
            sanitizer_violations=violations,
        )

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def dispose(self) -> None:
        """Tear a finished machine down so reference counting frees it.

        For the caller that built the machine and hands back only its
        results.  Cores, L1s, banks, policies and the watchdog point at
        each other and at the machine (and the heap at their bound
        continuations): left alone that is one cycle per machine,
        waiting for a gen-2 collection.  Dropping the pending events,
        closing the suspended thread generators and emptying the
        machine's own components cuts every such edge.  What a caller
        can still hold is left intact: ``stats``, the ``queue`` (clock
        and ``executed``), recorded dependence events, and the tracer /
        attribution / sanitizer / injector objects.
        """
        self.queue._heap.clear()
        parts = [self._watchdog, self.image, self.noc, *self.banks, *self.l1s]
        for core in self.cores:
            if core.thread is not None:
                core.thread._gen.close()
                parts.append(core.thread)
            parts += (core, core.policy, core.wb, core.bs)
        for part in parts:
            vars(part).clear()
        self.cores = self.l1s = self.banks = ()
        # the sanitizer points back at the machine; what it gathered
        # (violations) is the caller's, so only let go of it
        self.sanitizer = None

    def _refuse_if_disposed(self) -> None:
        if not self.cores:
            raise SimulatorError("machine was disposed: build a new one")
