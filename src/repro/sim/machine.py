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
``run_program``); ``run()`` itself never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addr import AddressMap
from repro.common.errors import ConfigError, SimulatorError
from repro.common.events import EventQueue
from repro.common.params import MachineParams
from repro.common.stats import MachineStats
from repro.core.cpu import Core
from repro.core.thread import SimThread, ThreadContext
from repro.fences.base import policy_class
from repro.mem.directory import DirectoryBank
from repro.mem.l1controller import L1Controller
from repro.mem.memory import MemoryImage
from repro.mem.noc import MeshNoc
from repro.runtime.alloc import Allocator
from repro.sim.deadlock import Watchdog
from repro.sim.governor import RunBudget
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


@dataclass(frozen=True)
class WarmState:
    """A machine at the end of its threads' warm-up, as
    :meth:`Machine.capture_warmup` took it and
    :meth:`Machine.restore_warmup` rebuilds it.

    Only a quiet machine is taken (see :meth:`Machine._take_warmup`),
    so each component's part is what its ``snapshot()`` keeps — the
    caches, the directory, the counters, the recorded accesses and the
    queue's clock; everything else is what a freshly built machine
    holds.
    """

    #: queue clock and sequence number at the boundary
    now: int
    seq: int
    #: the sequence number the cores' start events left for the
    #: periodic checks (the checks are armed right after it)
    arm_seq: int
    #: per core: the results its warm-up ops got, in order (its thread
    #: is replayed through them), and its ``Core.snapshot()``
    results: Tuple[tuple, ...]
    cores: Tuple[tuple, ...]
    #: ``MachineStats.snapshot()``, per L1 and per bank their
    #: ``snapshot()``, and ``DependenceRecorder.snapshot()`` (or None)
    stats: tuple
    l1s: tuple
    banks: tuple
    recorder: Optional[tuple]


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
        fine_grain = policy_class(params.fence_design).fine_grain_bs
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
        #: tid -> warm-up results, while a capture is armed
        self._warm: Optional[Dict[int, tuple]] = None
        self._restored: Optional[WarmState] = None
        #: what an armed capture took (None: nothing restorable)
        self.warm_state: Optional[WarmState] = None

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
    # warm-up capture and restore
    # ------------------------------------------------------------------

    def capture_warmup(self) -> Callable[[int, list], None]:
        """Arm the next :meth:`run` to take a :class:`WarmState`.

        Returns the callback each thread function calls as it yields
        the last op of its warm-up, with its thread id and the results
        its earlier warm-up ops got; a warm-up only loads and computes.
        When every core's thread has called it, the run pauses at the
        end of that event and, if the machine is quiet there, keeps the
        state in ``warm_state``; either way it then runs on as it would
        have.  Call before :meth:`run`, with no probe attached.
        """
        self._refuse_if_probed()
        self._warm = {}
        return self._warmed

    def _warmed(self, tid: int, results: list) -> None:
        warm = self._warm
        if warm is None:  # a replay after the boundary, or no capture
            return
        warm[tid] = tuple(results)
        if len(warm) == len(self.cores):
            self.queue.request_stop()

    def _refuse_if_probed(self) -> None:
        # a probe's own state is in no snapshot
        if (self.tracer is not None or self.faults is not None
                or self.sanitizer is not None
                or any(core.tracer is not None for core in self.cores)):
            raise SimulatorError("a warm-up is not kept with a probe on")

    def _take_warmup(self, arm_seq: int,
                     checks: list) -> Optional[WarmState]:
        """The quiet machine at the warm-up boundary, or None.

        Quiet: every thread stands right after its warm-up (so its
        core's one pending event is the ``_advance`` continuation that
        ended its batch, and no store was issued), the image took no
        write, the recorder awaits no access, and the only other live
        events are the periodic checks, each still waiting for its
        first call (a check that fired has changed its own state).  So
        no message is in flight and nothing waits on one: each
        component's ``snapshot()`` holds all it differs by from a
        fresh one.
        """
        warm, self._warm = self._warm, None
        cores = self.cores
        recorder = self.recorder
        if (len(warm) < len(cores) or self.image.writes
                or (recorder is not None and not recorder.between_accesses)
                or any(check.fired for check in checks)
                or len(self.queue) != len(cores) + len(checks)
                or any(core.thread.ops_committed != len(warm[core.core_id]) + 1
                       for core in cores)):
            return None
        return WarmState(
            now=self.queue.now, seq=self.queue.seq, arm_seq=arm_seq,
            results=tuple(warm[core.core_id] for core in cores),
            cores=tuple(core.snapshot() for core in cores),
            stats=self.stats.snapshot(),
            l1s=tuple(l1.snapshot() for l1 in self.l1s),
            banks=tuple(bank.snapshot() for bank in self.banks),
            recorder=recorder.snapshot() if recorder is not None else None,
        )

    def restore_warmup(self, state: WarmState) -> None:
        """Put this machine where *state*'s run stood at the end of its
        warm-up; :meth:`run` then goes on from there.

        The machine must be built and spawned as the captured one was
        (same knobs and core count, the same threads up to the
        boundary) and have no probe attached; its design may differ,
        since a warm-up runs no fence.  Each thread is replayed through
        its warm-up ops with the recorded results, as a W+ rollback
        replays its log.  Call after :meth:`spawn`, before :meth:`run`.
        """
        self._refuse_if_probed()
        for core, snapshot, results in zip(self.cores, state.cores,
                                           state.results):
            core.restore(snapshot, results)
        self.stats.restore(state.stats)
        for l1, snapshot in zip(self.l1s, state.l1s):
            l1.restore(snapshot)
        for bank, snapshot in zip(self.banks, state.banks):
            bank.restore(snapshot)
        if self.recorder is not None:
            self.recorder.restore(state.recorder)
        self._restored = state

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
        queue = self.queue
        restored = self._restored
        if restored is None:
            for core in self.cores:
                core.start()
        else:
            queue.restore(0, restored.arm_seq)
        arm_seq = queue.seq
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
        # the periodic checks, armed in this order (their seq numbers
        # are part of the simulated event stream) and stopped together
        breaches: List[str] = []
        checks = [queue.every(self._watchdog.interval,
                              self._watchdog.check, "watchdog")]
        if self.sanitizer is not None:
            checks.append(queue.every(self.sanitizer.interval,
                                      self.sanitizer.check_all, "sanitizer"))
        if budget is not None and budget.enabled:
            checks.append(budget.arm(queue, breaches.append))
        if restored is not None:
            # on from the warm-up boundary: its clock, and each core's
            # continuation at its recorded time and sequence number
            queue.restore(restored.now, restored.seq)
            for core, snapshot in zip(self.cores, restored.cores):
                core.resume(snapshot)
        try:
            queue.run(until=limit)
            if self._warm is not None:
                # paused at the warm-up boundary, or ended short of it
                paused = (len(self._warm) == len(self.cores)
                          and queue.stop_requested
                          and self._done_cores < len(self.cores))
                self.warm_state = self._take_warmup(arm_seq, checks)
                if paused:
                    queue.clear_stop()
                    queue.run(until=limit)
        finally:
            # always, even when a workload or a strict sanitizer raises:
            # no check may leak into the next run, nor keep the queue
            # alive to the horizon of the quiesce drain below (that
            # would move stats.cycles)
            for check in checks:
                check.stop()
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
            self.sanitizer.check_all()
        self.stats.cycles = self.queue.now
        if self.tracer is not None:
            self.tracer.finalize()
            # per-core coarse breakdown instants: offline attribution
            # replay reconciles its fine leaves against these
            self.tracer.core_summaries(self.stats)
        events = self.recorder.events if self.recorder else None
        degraded_reason = breaches[0] if breaches else None
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
