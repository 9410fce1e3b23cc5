"""The core (CPU) model.

Consumes operations from a :class:`~repro.core.thread.SimThread` and
turns them into timed activity against the memory system:

* ``Compute`` — ``n / issue_width`` busy cycles.
* ``Load`` — write-buffer forwarding, L1 hit (fully pipelined: one
  issue slot), or a GetS miss whose latency beyond the issue slot is
  *Other Stall*.  While a weak fence is incomplete, the performed
  load's line enters the Bypass Set (stalling if the BS is full) and
  Wee's RemotePS / directory-confinement checks apply.
* ``Store`` — retires into the TSO write buffer (stall on full =
  *Other Stall*); a drain engine merges entries one at a time, retrying
  bounced transactions with back-off and the design's Order /
  Conditional-Order promotions.
* ``Fence`` — sf: block until the pre-fence stores merge, charging
  *Fence Stall* (+ ``sf_base_cycles``); wf: retire immediately and
  track a :class:`~repro.fences.base.PendingFence` (checkpointing the
  thread under W+).
* ``AtomicRMW`` — drains the write buffer (fence semantics under TSO),
  then read-modify-writes atomically at the memory system.

Timing/accounting invariant: every simulated cycle of a core belongs to
exactly one of Busy / Fence Stall / Other Stall, matching the paper's
stacked bars.

A micro-batch fast path executes runs of purely-local operations
(compute, WB hits, L1 hits with no fence outstanding) inside a single
event to keep the Python event count manageable; `batch_cycles = 0`
disables it for interleaving-exact runs (litmus tests).

A W+ rollback must not let squashed work resurrect the thread, and one
rule covers every continuation: *what the core holds, ``_recover``
clears; what the memory system holds carries an epoch*.  The core holds
its waits in slots — the drain wait (``_sf_wait``), the full-write-buffer
waiter, the stalled load, and ``_cont_ev``, the one pending control-flow
event (start, batch continuation, slow-path op, the resume after an sf
or a recovery) — and ``_recover`` empties the first three and cancels
the fourth.  A load or RMW in flight at the memory system is an
:class:`_InFlight` record that remembers the core's rollback epoch from
when it issued and does nothing if a recovery intervened (its bound
methods are the continuations — acyclic, freed by reference count).  A
custom strong fence parks its resume outside the core, out of
``_recover``'s reach, so no design may pair one with rollback (the
constructor asserts it; ``tests/unit/test_cpu_mechanics.py`` forces a
rollback at each of the other places).
"""

from __future__ import annotations

from math import ceil as _ceil
from typing import Callable, List, Optional

from repro.common.events import EventQueue
from repro.common.params import FenceFlavour, MachineParams
from repro.common.stats import MachineStats
from repro.core import isa
from repro.core.thread import SimThread
from repro.fences.base import FencePolicy, PendingFence, make_policy
from repro.mem.l1controller import L1Controller
from repro.mem.memory import MemoryImage
from repro.mem.writebuffer import StoreEntry, WriteBuffer


class _SfWait:
    """Bookkeeping for a blocking wait on write-buffer drain."""

    __slots__ = ("store_id", "callback")

    def __init__(self, store_id: int, callback: Callable[[], None]):
        self.store_id = store_id
        self.callback = callback


class _InFlight:
    """One load or atomic RMW in flight at the memory system.

    The bound methods are the continuations handed to the L1, so an
    access costs one small record that dies by reference count — no
    closure cells pointing at each other for the cyclic collector.
    ``epoch`` is the core's rollback epoch when the access issued and is
    tested by every continuation: a W+ recovery in between squashes the
    access for good, bounce retries included.
    """

    __slots__ = ("core", "op", "word", "po", "t0", "epoch")

    def __init__(self, core: "Core", op, word: int):
        self.core = core
        self.op = op
        self.word = word
        self.po = core.thread._ops
        self.t0 = core.queue.now
        self.epoch = core._epoch

    def load_done(self, was_hit: bool) -> None:
        core = self.core
        if core._epoch != self.epoch:
            return
        stall = (core.queue.now - self.t0) - core._issue_slot
        if stall > 0.0:
            core.stats.breakdown[core.core_id].other_stall += stall
            if core.tracer is not None:
                core.tracer.mem_stall(core.core_id, self.t0, stall)
        core._load_performed(self.op, self.word, self.po)

    def rmw_issue(self) -> None:
        core = self.core
        if core._epoch == self.epoch:
            core.l1.issue_rmw(
                self.word, self.op.apply, self.rmw_done, self.rmw_bounce,
                self.po,
            )

    def rmw_done(self, old: int) -> None:
        core = self.core
        if core._epoch != self.epoch:
            return
        stall = (core.queue.now - self.t0) - core._issue_slot
        if stall > 0.0:
            core.stats.breakdown[core.core_id].other_stall += stall
            if core.tracer is not None:
                core.tracer.rmw_stall(core.core_id, self.t0, stall)
        core._advance(old)

    def rmw_bounce(self) -> None:
        core = self.core
        core.stats.write_retries += 1
        if core.tracer is not None:
            core.tracer.rmw_retry(core.core_id, self.word)
        core.queue.schedule(
            core.params.bounce_retry_cycles, self.rmw_issue, "cpu.rmw_retry"
        )


class Core:
    """One simulated processor."""

    def __init__(
        self,
        core_id: int,
        params: MachineParams,
        stats: MachineStats,
        queue: EventQueue,
        l1: L1Controller,
        image: MemoryImage,
        machine,
    ):
        self.core_id = core_id
        self.params = params
        self.stats = stats
        self.queue = queue
        self.l1 = l1
        self.image = image
        self.machine = machine
        #: observability listener (a Tracer, or a CycleAttribution
        #: answering the same hook names) — None when disabled; every
        #: emit site guards on ``self.tracer is None`` so the unobserved
        #: path costs one attribute load + identity test.
        self.tracer = machine.tracer
        #: fault-injection hook (repro.faults.FaultInjector) — cached
        #: like the tracer; None keeps the fault-free path untouched.
        self.faults = machine.faults
        #: protocol-sanitizer hook (repro.sanitizer.Sanitizer) — cached
        #: like the tracer; None keeps the unsanitized path untouched.
        self.sanitizer = machine.sanitizer
        self.amap = l1.amap
        self.bs = l1.bs
        self.wb = WriteBuffer(params.write_buffer_entries, core_id)
        self.policy: FencePolicy = make_policy(params.fence_design, self)
        # a custom fence parks its resume where ``_recover`` cannot reach
        assert self.policy.custom_strong_fence is None or not (
            self.policy.needs_checkpoint
            or self.policy.needs_deadlock_monitor)
        self.thread: Optional[SimThread] = None
        self.finished = True  # no thread bound yet
        #: cached "(thread is None or finished) and wb.empty" — the
        #: machine counts done cores for its wake-on-event stop;
        #: resynced by Machine.run, updated at transitions only.
        self._done = False
        #: a W+ rollback's drain-before-resume window is in progress
        self.recovering = False

        self._issue_slot = 1.0 / params.issue_width
        # address-geometry scalars for inline word/line arithmetic on
        # the per-op fast path (equivalent to amap.word_of/line_of)
        self._word_bytes = self.amap.word_bytes
        self._line_bytes = self.amap.line_bytes
        self._fence_counter = 0
        #: incomplete weak fences, oldest first
        self.pending_fences: List[PendingFence] = []
        self._drain_busy = False
        self._sf_wait: Optional[_SfWait] = None
        self._wb_full_waiter: Optional[Callable[[], None]] = None
        #: (retry_fn, t0) for a load stalled by a Wee check / full BS
        self._stalled_load: Optional[tuple] = None
        #: rollback epoch: bumped by ``_recover``, carried by _InFlight
        self._epoch = 0
        #: id of the newest store known to have merged (fence completion)
        self._last_merged_store_id = 0
        self._dl_timer = None
        self._txn_t0: Optional[float] = None
        # single-slot continuation state for the pre-bound fast-path
        # callbacks below.  A core is a sequential machine: at most one
        # control-flow event (batch continuation or slow-path op) is in
        # flight at a time, so the pending op/result can live on the
        # instance instead of in a fresh closure per event.  W+ recovery
        # cancels the pending event outright (see ``_recover``).
        self._cont_ev = None
        self._cont_result = None
        self._cont_op = None
        self._cb_advance = self._advance_cont
        self._cb_exec_load = self._exec_load_cont
        self._cb_exec_store_blocked = self._exec_store_blocked_cont
        self._cb_exec_fence = self._exec_fence_cont
        self._cb_exec_rmw = self._exec_rmw_cont
        self._cb_drain_merged = self._drain_merged
        self._cb_drain_bounced = self._drain_bounced
        #: progress signals for the no-progress watchdog
        self.ops_committed = 0
        self.stores_merged = 0
        #: rollback-aware observations collected via ops.Note
        self.notes: List[tuple] = []
        #: (po, kind, delta) journal to reverse Marks on W+ recovery
        self._mark_journal: List[tuple] = []
        #: pending (store_id, table) C-fence registrations to clear
        self._cfence_clears: List[tuple] = []

        if self.policy.needs_deadlock_monitor:
            self.l1.on_bs_bounce = self._check_deadlock_monitor

    # ------------------------------------------------------------------
    # thread binding / start
    # ------------------------------------------------------------------

    def bind(self, thread: SimThread) -> None:
        self.thread = thread
        self.finished = False

    def start(self) -> None:
        if self.thread is None:
            return
        self._cont_ev = self.queue.schedule(0, self._cb_advance, "cpu.start")

    def snapshot(self) -> tuple:
        """This core while its one pending event is the ``_advance``
        continuation (no op parked, nothing buffered, nothing in
        flight): ``ops_committed`` and that event's
        ``(time, seq, label)``."""
        ev = self._cont_ev
        return self.ops_committed, (ev[0], ev[1], ev[3])

    def restore(self, snapshot: tuple, results) -> None:
        """Put a freshly bound core where *snapshot* was taken: its
        thread fast-forwarded through ops that got *results*.  The
        continuation waits for :meth:`resume`."""
        self.thread.fast_forward(results)
        self.ops_committed = snapshot[0]

    def resume(self, snapshot: tuple) -> None:
        """Schedule the continuation *snapshot* recorded (in place of
        :meth:`start`)."""
        time, seq, label = snapshot[1]
        self._cont_ev = self.queue.schedule_as(
            time, seq, self._cb_advance, label)

    # ------------------------------------------------------------------
    # main execution loop
    # ------------------------------------------------------------------

    def _advance(self, result) -> None:
        """Consume ops until one needs global interaction or the
        micro-batch window closes, then schedule the continuation.

        This is the simulator's innermost loop (one iteration per
        committed operation), so everything it touches repeatedly is
        bound to a local and ops dispatch on exact type — the ISA op
        classes are final, making ``__class__ is`` equivalent to
        ``isinstance`` here.
        """
        elapsed = 0.0
        budget = self.params.batch_cycles
        thread = self.thread
        next_op = thread.next_op
        cid = self.core_id
        stats = self.stats
        instructions = stats.instructions
        breakdown = stats.breakdown[cid]
        issue_slot = self._issue_slot
        pending_fences = self.pending_fences
        wb_forward = self.wb.forward_entry
        wb = self.wb
        wb_cap = wb.capacity
        word_b = self._word_bytes
        line_b = self._line_bytes
        cache_lookup = self.l1.cache.lookup
        image_read = self.image.read
        schedule = self.queue.schedule
        recorder = self.machine.recorder
        Compute = isa.Compute
        Load = isa.Load
        Store = isa.Store
        while True:
            op = next_op(result)
            result = None
            self.ops_committed += 1
            if op is None:
                self._finish_thread(elapsed)
                return

            cls = op.__class__
            if cls is Compute:
                n = op.instructions
                instructions[cid] += n
                cycles = n * issue_slot
                breakdown.busy += cycles
                elapsed += cycles
            elif cls is Load:
                a = op.addr
                word = a - (a % word_b)
                # with a fence outstanding the slow path decides
                # stall-vs-BS-tracked-forward; no fast path applies
                fwd = wb_forward(word) if not pending_fences else None
                if fwd is not None:
                    instructions[cid] += 1
                    breakdown.busy += issue_slot
                    elapsed += 1.0  # store-to-load forwarding latency
                    if recorder is not None:
                        recorder.note_forwarded(
                            cid, thread._ops, fwd.word, fwd.value, fwd.po
                        )
                    result = fwd.value
                elif not pending_fences and \
                        cache_lookup(a - (a % line_b)) is not None:
                    # L1 hit with no fence outstanding: fully pipelined
                    instructions[cid] += 1
                    breakdown.busy += issue_slot
                    stats.l1_hits += 1
                    elapsed += issue_slot
                    if recorder is not None:
                        recorder.note_po(cid, thread._ops)
                    result = image_read(word, cid)
                else:
                    self._cont_op = op
                    self._cont_ev = schedule(
                        _ceil(elapsed), self._cb_exec_load, "cpu.cont")
                    return
            elif cls is Store:
                if len(wb._entries) >= wb_cap:
                    self._cont_op = op
                    self._cont_ev = schedule(
                        _ceil(elapsed), self._cb_exec_store_blocked,
                        "cpu.cont")
                    return
                self._retire_store(op)
                elapsed += issue_slot
            elif cls is isa.Mark:
                self._handle_mark(op, elapsed)
            elif cls is isa.Note:
                self.notes.append((thread._ops, op.payload))
            elif cls is isa.Fence:
                self._cont_op = op
                self._cont_ev = schedule(
                    _ceil(elapsed), self._cb_exec_fence, "cpu.cont")
                return
            elif cls is isa.AtomicRMW:
                self._cont_op = op
                self._cont_ev = schedule(
                    _ceil(elapsed), self._cb_exec_rmw, "cpu.cont")
                return
            else:
                raise TypeError(f"thread {thread.tid} yielded {op!r}")

            if budget and elapsed >= budget:
                self._cont_result = result
                self._cont_ev = schedule(
                    _ceil(elapsed), self._cb_advance, "cpu.cont")
                return
            if not budget:
                # batching disabled: one op per event
                self._cont_result = result
                self._cont_ev = schedule(
                    _ceil(max(elapsed, 1.0)), self._cb_advance, "cpu.cont")
                return

    def _resume_after(self, delay: float) -> None:
        """Pick the thread up again (no result) *delay* cycles on."""
        self._cont_ev = self.queue.schedule(
            _ceil(delay), self._cb_advance, "cpu.cont")

    # --- pre-bound continuation callbacks (zero-allocation fast path).
    # Each consumes the single-slot state set where it was scheduled.

    def _advance_cont(self) -> None:
        self._cont_ev = None
        result, self._cont_result = self._cont_result, None
        self._advance(result)

    def _exec_load_cont(self) -> None:
        self._cont_ev = None
        op, self._cont_op = self._cont_op, None
        self._exec_load(op)

    def _exec_store_blocked_cont(self) -> None:
        self._cont_ev = None
        op, self._cont_op = self._cont_op, None
        self._exec_store_blocked(op)

    def _exec_fence_cont(self) -> None:
        self._cont_ev = None
        op, self._cont_op = self._cont_op, None
        self._exec_fence(op)

    def _exec_rmw_cont(self) -> None:
        self._cont_ev = None
        op, self._cont_op = self._cont_op, None
        self._exec_rmw(op)

    def _finish_thread(self, elapsed: float) -> None:
        self.finished = True
        self._refresh_done()
        self.queue.schedule(
            _ceil(elapsed),
            lambda: self.machine.thread_finished(self),
            "cpu.done",
        )

    def _refresh_done(self) -> None:
        """Report a done/not-done transition to the machine.

        Called wherever doneness can flip: the thread finishing, the
        write buffer draining its last store, or a W+ rollback
        resurrecting a finished thread.  The machine counts done cores
        and stops the event loop when all of them are (wake-on-event
        replacement for polling ``Machine._all_done`` per event).
        """
        done = (self.thread is None or self.finished) and not self.wb._entries
        if done != self._done:
            self._done = done
            self.machine.core_done_changed(done)

    # ------------------------------------------------------------------
    # marks (zero-time statistics)
    # ------------------------------------------------------------------

    _MARK_COUNTERS = {
        "txn_commit": "txn_commits",
        "txn_abort": "txn_aborts",
        "task_executed": "tasks_executed",
        "task_stolen": "tasks_stolen",
    }

    def _handle_mark(self, op: isa.Mark, elapsed: float) -> None:
        now = self.queue.now + elapsed
        po = self.thread._ops
        journal = self.policy.needs_checkpoint
        if op.kind in self._MARK_COUNTERS:
            attr = self._MARK_COUNTERS[op.kind]
            setattr(self.stats, attr, getattr(self.stats, attr) + op.amount)
            if journal:
                self._mark_journal.append((po, attr, op.amount))
        elif op.kind == "txn_cycles_begin":
            self._txn_t0 = now
        elif op.kind == "txn_cycles_end":
            if self._txn_t0 is not None:
                delta = now - self._txn_t0
                self.stats.txn_cycles += delta
                self._txn_t0 = None
                if journal:
                    self._mark_journal.append((po, "txn_cycles", delta))
        else:
            raise ValueError(f"unknown Mark kind {op.kind!r}")

    # ------------------------------------------------------------------
    # stores and the drain engine
    # ------------------------------------------------------------------

    def _note_forwarded(self, entry: StoreEntry, po: int) -> None:
        """Report a write-buffer-forwarded load to the SCV recorder;
        forwarded loads never reach the memory image observer."""
        recorder = self.machine.recorder
        if recorder is not None:
            recorder.note_forwarded(
                self.core_id, po, entry.word, entry.value, entry.po
            )

    def _retire_store(self, op: isa.Store) -> None:
        a = op.addr
        word = a - (a % self._word_bytes)
        cid = self.core_id
        stats = self.stats
        stats.instructions[cid] += 1
        stats.breakdown[cid].busy += self._issue_slot
        entry = self.wb.push(word, op.value, word - (word % self._line_bytes))
        entry.po = self.thread._ops
        if not self._drain_busy:
            self._kick_drain()

    def _exec_store_blocked(self, op: isa.Store) -> None:
        """Retire a store once a write-buffer slot frees up."""
        t0 = self.queue.now

        def on_slot():
            waited = self.queue.now - t0
            self.stats.add_other_stall(self.core_id, waited)
            if waited and self.tracer is not None:
                self.tracer.wb_full_stall(self.core_id, t0)
            self._retire_store(op)
            self._advance(None)

        if not self.wb.full:
            on_slot()
            return
        self._wb_full_waiter = on_slot
        self._kick_drain()

    def _kick_drain(self) -> None:
        if self._drain_busy or not self.wb._entries:
            return
        self._drain_busy = True
        entry = self.wb._entries[0]
        entry.issued = True
        # only the head store is ever in flight, so the completion
        # callbacks are pre-bound methods that re-read the head instead
        # of per-issue closures capturing the entry.
        self.l1.issue_store(
            entry, self._cb_drain_merged, self._cb_drain_bounced)

    def _drain_merged(self) -> None:
        wb = self.wb
        # pop_head() inlined unless a probe wants to see the pop
        entry = wb._entries.pop(0) if wb.tracer is None else wb.pop_head()
        self._drain_busy = False
        self.stores_merged += 1
        if entry.bouncing and self.tracer is not None:
            self.tracer.store_chain_end(self.core_id, entry.store_id)
        self._on_store_completed(entry.store_id)
        # (a waiter woken above may have retired a store and kicked the
        # drain already)
        if wb._entries:
            self._kick_drain()
        else:
            # only a running thread retires stores, so a core that is
            # done has an empty buffer: nothing to report otherwise
            self._refresh_done()

    def _drain_bounced(self) -> None:
        entry = self.wb._entries[0]  # the head: the only issued store
        if not entry.bouncing:
            self.stats.bounced_writes += 1
        entry.bouncing = True
        entry.retries += 1
        self.stats.write_retries += 1
        if self.tracer is not None:
            self.tracer.store_bounce(
                self.core_id, entry.store_id, entry.word, entry.line,
                entry.retries, entry.ordered,
            )
        self.policy.on_pre_store_bounce(entry)
        self._check_deadlock_monitor()
        delay = self.params.bounce_retry_cycles
        if self.faults is not None:
            delay = self.faults.retry_backoff(entry.retries, delay)
        self.queue.schedule(
            delay,
            lambda: self._retry_head(entry),
            "cpu.store_retry",
        )

    def _retry_head(self, entry: StoreEntry) -> None:
        # the entry is still the head (FIFO; it never merged)
        if self.wb.head() is entry:
            self.l1.issue_store(
                entry, self._cb_drain_merged, self._cb_drain_bounced)
        else:  # pragma: no cover - defensive
            self._drain_busy = False
            self._kick_drain()

    def _on_store_completed(self, store_id: int) -> None:
        """A store merged: complete fences, wake drain waiters."""
        if store_id > self._last_merged_store_id:
            self._last_merged_store_id = store_id
        if self.pending_fences:
            self._complete_ready_fences()
        if self._cfence_clears:
            due = [t for sid, t in self._cfence_clears if sid <= store_id]
            if due:
                self._cfence_clears = [
                    (sid, t) for sid, t in self._cfence_clears
                    if sid > store_id
                ]
                for table in due:
                    table.clear(self.core_id)
        if not self.pending_fences and self._mark_journal:
            # no rollback can reach behind this point anymore
            self._mark_journal.clear()
        if self._stalled_load is not None:
            self.retry_stalled_load()
        if self._sf_wait is not None and self._sf_wait.store_id <= store_id:
            wait, self._sf_wait = self._sf_wait, None
            wait.callback()
        if self._wb_full_waiter is not None and \
                len(self.wb._entries) < self.wb.capacity:
            waiter, self._wb_full_waiter = self._wb_full_waiter, None
            waiter()

    def _complete_ready_fences(self) -> None:
        while self.pending_fences:
            pf = self.pending_fences[0]
            if pf.last_store_id > self._last_merged_store_id:
                break
            if self.policy.completion_blocked(pf):
                break  # e.g. Wee waiting for its GRT acknowledgment
            self.pending_fences.pop(0)
            self.stats.sample_bs_occupancy(len(self.bs))
            if self.tracer is not None:
                self.tracer.wf_complete(self.core_id, pf.fence_id, len(self.bs))
            self.bs.clear_upto(pf.fence_id)
            self.policy.on_wf_complete(pf)
            if self.sanitizer is not None:
                self.sanitizer.on_core_transition(self)

    def recheck_fence_completion(self) -> None:
        """Re-run fence completion after an external unblock event
        (the Wee GRT acknowledgment arriving)."""
        self._complete_ready_fences()
        if self._stalled_load is not None:
            self.retry_stalled_load()

    # ------------------------------------------------------------------
    # loads (slow path: misses, or any load under an incomplete fence)
    # ------------------------------------------------------------------

    def _exec_load(self, op: isa.Load) -> None:
        word = self.amap.word_of(op.addr)
        reason = self.policy.load_stall_check(op.addr)
        if reason is not None:
            # an sf blocks later loads outright — forwarding past an
            # incomplete fence would leak the load ahead of the drain
            self._stall_load(lambda: self._exec_load(op), reason)
            return
        fwd = self.wb.forward_entry(word)
        if fwd is not None:
            if self.pending_fences:
                # a forwarded post-wf load completes early like any
                # other: its line must enter the BS so conflicting
                # remote writes bounce until the group completes
                line = self.amap.line_of(word)
                if self.bs.full and not self.bs.match_line(line):
                    self.stats.bs_overflow_stalls += 1
                    self._stall_load(lambda: self._exec_load(op), "bs_full")
                    return
                self.bs.add(
                    line,
                    self.amap.word_mask(word),
                    self.pending_fences[-1].fence_id,
                )
                self.stats.bs_insertions += 1
            self.stats.instructions[self.core_id] += 1
            self.stats.breakdown[self.core_id].busy += self._issue_slot
            self._note_forwarded(fwd, self.thread._ops)
            self._cont_result = fwd.value
            self._cont_ev = self.queue.schedule(1, self._cb_advance, "cpu.cont")
            return
        self.stats.instructions[self.core_id] += 1
        self.stats.breakdown[self.core_id].busy += self._issue_slot
        self.l1.read(op.addr, _InFlight(self, op, word).load_done)

    def _load_performed(self, op: isa.Load, word: int, po: int) -> None:
        """The load's data is back; retire it (BS insertion if post-wf)."""
        if self.pending_fences:
            if self.l1.cache.lookup(self.amap.line_of(word), touch=False) is None:
                # an invalidation landed between the load reading the
                # line and the BS insertion becoming visible.  The L1
                # port serializes those in hardware; model it by
                # replaying the load (it re-fetches, and the refetched
                # line enters the BS before any later INV can hit it).
                self.stats.load_replays += 1
                self._exec_load(op)
                return
            if self.bs.full and not self.bs.match_line(self.amap.line_of(word)):
                # cannot track another line: the load waits for a fence
                # to complete and clear BS space (WeeFence behaviour).
                self.stats.bs_overflow_stalls += 1
                self._stall_load(lambda: self._load_performed(op, word, po),
                                 "bs_full")
                return
            self.bs.add(
                self.amap.line_of(word),
                self.amap.word_mask(word),
                self.pending_fences[-1].fence_id,
            )
            self.stats.bs_insertions += 1
        recorder = self.machine.recorder
        if recorder is not None:
            recorder.note_po(self.core_id, po)
        self._advance(self.image.read(word, self.core_id))

    def _stall_load(self, retry: Callable[[], None],
                    reason: str = "fence") -> None:
        """Park a load until a fence completes (fence-induced stall)."""
        self._stalled_load = (retry, self.queue.now, reason)

    def retry_stalled_load(self) -> None:
        """Re-attempt a parked load (fence completed / RemotePS arrived)."""
        if self._stalled_load is None:
            return
        retry, t0, reason = self._stalled_load
        self._stalled_load = None
        self.stats.breakdown[self.core_id].fence_stall += self.queue.now - t0
        if self.tracer is not None:
            self.tracer.load_stall(self.core_id, t0, reason)
        retry()

    # ------------------------------------------------------------------
    # fences
    # ------------------------------------------------------------------

    def _exec_fence(self, op: isa.Fence) -> None:
        self.stats.instructions[self.core_id] += 1
        self.stats.breakdown[self.core_id].busy += self._issue_slot
        flavour = self.policy.flavour(op.role)
        if flavour is FenceFlavour.SF:
            self.stats.sf_executed[self.core_id] += 1
            custom = self.policy.custom_strong_fence
            if custom is not None:
                if self.tracer is not None:
                    self.tracer.sf_begin(self.core_id)
                custom(self._custom_fence_done)
                return
            if self.tracer is not None:
                self.tracer.sf_begin(self.core_id)
            self._run_strong_fence()
            return
        # weak fence
        if not self.wb._entries:
            # no pending pre-fence stores: the fence completes at
            # retirement for every design (nothing to reorder past).
            self.stats.wf_executed[self.core_id] += 1
            if self.tracer is not None:
                self.tracer.wf_trivial(self.core_id)
            self._cont_ev = self.queue.schedule(1, self._cb_advance, "cpu.cont")
            return
        self._fence_counter += 1
        pf = PendingFence(
            fence_id=self._fence_counter,
            last_store_id=self.wb.newest_store_id(),
        )
        if not self.policy.on_wf_retire(pf):
            # Wee confinement failure: execute as a conventional fence
            self.stats.sf_executed[self.core_id] += 1
            self.stats.wee_sf_conversions[self.core_id] += 1
            if self.tracer is not None:
                self.tracer.sf_begin(self.core_id, demoted=True)
            self._run_strong_fence()
            return
        self.stats.wf_executed[self.core_id] += 1
        if self.policy.needs_checkpoint:
            pf.checkpoint = self.thread.checkpoint()
        self.pending_fences.append(pf)
        if self.tracer is not None:
            self.tracer.wf_retire(
                self.core_id, pf.fence_id, len(self.wb._entries)
            )
        if self.sanitizer is not None:
            self.sanitizer.on_core_transition(self)
        self._cont_ev = self.queue.schedule(1, self._cb_advance, "cpu.cont")

    def _custom_fence_done(self) -> None:
        if self.tracer is not None:
            self.tracer.sf_end(self.core_id)
        self._advance(None)

    def _run_strong_fence(self) -> None:
        t0 = self.queue.now
        base = self.policy.sf_base_cost()

        def done():
            self.stats.add_fence_stall(
                self.core_id, (self.queue.now - t0) + base
            )
            if self.tracer is not None:
                self.tracer.sf_end(self.core_id, extra=base)
            self._resume_after(base)

        self._wait_for_drain(done)

    def _wait_for_drain(self, callback: Callable[[], None]) -> None:
        if not self.wb._entries:
            callback()
            return
        assert self._sf_wait is None, "nested drain waits"
        self._sf_wait = _SfWait(self.wb.newest_store_id(), callback)
        self._kick_drain()

    def register_cfence_clear(self, store_id: int, table) -> None:
        """Clear this core's centralized-table entry once the fence's
        pre-fence stores (up to *store_id*) have merged."""
        self._cfence_clears.append((store_id, table))

    def recount_wee_conversion(self) -> None:
        """A Wee wf dynamically converted to sf (post-fence access left
        the confined directory module): fix the Table-4 counts."""
        self.stats.wf_executed[self.core_id] -= 1
        self.stats.sf_executed[self.core_id] += 1
        self.stats.wee_sf_conversions[self.core_id] += 1

    # ------------------------------------------------------------------
    # atomic read-modify-write
    # ------------------------------------------------------------------

    def _exec_rmw(self, op: isa.AtomicRMW) -> None:
        self.stats.instructions[self.core_id] += 1
        self.stats.add_busy(self.core_id, self._issue_slot)
        rmw = _InFlight(self, op, self.amap.word_of(op.addr))
        self._wait_for_drain(rmw.rmw_issue)

    # ------------------------------------------------------------------
    # W+ deadlock suspicion and recovery
    # ------------------------------------------------------------------

    def _deadlock_suspected(self) -> bool:
        return bool(
            self.pending_fences
            and self.wb.any_bouncing()
            and not self.bs.empty
            and self.bs.bounced_since_clear
        )

    def _check_deadlock_monitor(self) -> None:
        if not self.policy.needs_deadlock_monitor:
            return
        if not self.params.wplus_recovery_enabled:
            return  # naive design (Fig. 3a): let the deadlock stand
        if self._dl_timer is not None:
            return
        if not self._deadlock_suspected():
            return
        self.stats.wplus_timeouts += 1
        delay = (
            self.params.wplus_timeout_cycles
            + self.core_id * self.params.wplus_timeout_jitter_cycles
        )
        if self.faults is not None:
            delay = self.faults.wplus_timeout(delay)
        if self.tracer is not None:
            self.tracer.timeout_armed(self.core_id, delay)
        self._dl_timer = self.queue.schedule(
            delay, self._dl_expired, "cpu.wplus_timeout"
        )

    def _dl_expired(self) -> None:
        self._dl_timer = None
        if self._deadlock_suspected():
            self._recover()
        # conditions cleared on their own: no action, monitor re-arms
        # on the next bounce.

    def _recover(self) -> None:
        """W+ rollback (paper §3.3.3).

        Restore the thread to the oldest incomplete wf, squash the
        not-yet-merged post-fence stores, clear the BS (unblocking the
        remote writer), then drain the write buffer before resuming —
        the wf behaves as an sf this one time.
        """
        self.stats.wplus_recoveries += 1
        pf = self.pending_fences[0]
        assert pf.checkpoint is not None
        tracer = self.tracer
        fences_unwound = 0
        if tracer is not None:
            # close episode spans the rollback is about to squash
            tracer.sf_abort(self.core_id)
            fences_unwound = tracer.wf_unwind_all(self.core_id)
        self._epoch += 1  # squashes the access in flight, if any
        if self._cont_ev is not None:
            self.queue.cancel(self._cont_ev)
            self._cont_ev = None
            self._cont_result = None
            self._cont_op = None
        self.pending_fences.clear()
        self._sf_wait = None
        self._wb_full_waiter = None
        self._stalled_load = None
        self._txn_t0 = None
        self.thread.rollback(pf.checkpoint)
        self.finished = False
        self.recovering = True
        self._refresh_done()
        dropped_stores = self.wb.drop_after(pf.last_store_id)
        bs_cleared = len(self.bs)
        self.bs.clear_all()
        if tracer is not None:
            tracer.recovery_begin(
                self.core_id, pf.fence_id, pf.checkpoint,
                dropped_stores, bs_cleared, fences_unwound,
            )
        if self.machine.recorder is not None:
            self.machine.recorder.squash(self.core_id, pf.checkpoint)
        # squash side effects of the discarded (post-checkpoint) region:
        # collected notes and already-applied statistics marks.
        self.notes = [n for n in self.notes if n[0] <= pf.checkpoint]
        keep = []
        for po, attr, delta in self._mark_journal:
            if po > pf.checkpoint:
                setattr(self.stats, attr, getattr(self.stats, attr) - delta)
            else:
                keep.append((po, attr, delta))
        self._mark_journal = keep
        if self.sanitizer is not None:
            # rollback state is fully settled here: fences cleared,
            # post-checkpoint stores squashed, BS emptied.
            self.sanitizer.on_core_transition(self)
        t0 = self.queue.now

        def resume():
            self.recovering = False
            if self.sanitizer is not None:
                self.sanitizer.on_recovery_resume(self)
            self.stats.add_fence_stall(
                self.core_id,
                (self.queue.now - t0) + self.params.wplus_recovery_cycles,
            )
            if self.tracer is not None:
                self.tracer.recovery_end(
                    self.core_id, extra=self.params.wplus_recovery_cycles
                )
            self._resume_after(self.params.wplus_recovery_cycles)

        self._wait_for_drain(resume)
