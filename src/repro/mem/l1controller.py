"""Per-core L1 cache controller.

Sits between the core (:mod:`repro.core.cpu`) and the directory banks.
Responsibilities:

* service loads (L1 hit or GetS transaction);
* drain write-buffer stores (L1 write hit, GetX/Upgrade, or the
  Order / Conditional-Order flavours once a store's O bit is set);
* perform atomic RMWs;
* answer incoming invalidations and downgrades, checking the Bypass Set
  **before** the cache (paper §3.2/§5.1) so a BS entry keeps bouncing or
  keeps the core a sharer even after the line was evicted;
* issue dirty writebacks on eviction, with the keep-sharer flag when the
  victim line is in the BS (§5.1).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.events import EventQueue
from repro.common.addr import AddressMap
from repro.common.params import MachineParams
from repro.common.stats import MachineStats
from repro.core.bypass_set import BypassSet
from repro.mem.cache import LineState, SetAssocCache
from repro.mem.memory import MemoryImage
from repro.mem.messages import Msg, Transaction
from repro.mem.noc import MeshNoc


class L1Controller:
    """One private L1 cache + its coherence endpoint."""

    def __init__(
        self,
        core_id: int,
        params: MachineParams,
        stats: MachineStats,
        noc: MeshNoc,
        image: MemoryImage,
        queue: EventQueue,
        amap: AddressMap,
        fine_grain_bs: bool = False,
    ):
        self.core_id = core_id
        self.params = params
        self.stats = stats
        self.noc = noc
        self.image = image
        self.queue = queue
        self.amap = amap
        self.cache = SetAssocCache(
            params.l1_size_bytes, params.l1_ways, params.line_bytes
        )
        self.bs = BypassSet(params.bs_entries, fine_grain=fine_grain_bs)
        # hot-path scalars lifted out of params/amap: every load and
        # every drained store goes through read()/issue_store().
        self._line_bytes = params.line_bytes
        self._hit_cycles = params.l1_hit_cycles
        self._interleave = self.amap.interleave_bytes
        self._num_banks = params.num_banks
        #: wired by the Machine: list of DirectoryBank, index = bank id
        self.banks: List = []
        #: core hook fired when this BS bounces an external request
        #: (feeds the W+ deadlock-suspicion monitor)
        self.on_bs_bounce: Optional[Callable[[], None]] = None
        #: SC-violation recorder (set by the Machine when tracking)
        self.recorder = None
        #: observability listener (set by the Machine's attach_*)
        self.tracer = None
        #: fault-injection hook (set by Machine.attach_faults)
        self.faults = None
        #: protocol-sanitizer hook (set by Machine.attach_sanitizer)
        self.sanitizer = None
        # single-slot continuation state for the L1 hit fast paths.
        # The core is in-order: at most one outstanding load, one head
        # store (the drain engine is serialized by ``_drain_busy``) and
        # one RMW per core, and the three use disjoint slots — so the
        # hit-path completions can be pre-bound methods over instance
        # slots instead of a fresh closure per event (flat records).
        self._read_done: Optional[Callable[[bool], None]] = None
        self._st_entry = None
        self._st_done: Optional[Callable[[], None]] = None
        self._st_bounce: Optional[Callable[[], None]] = None
        self._rmw_word = 0
        self._rmw_po = 0
        self._rmw_apply: Optional[Callable[[int], int]] = None
        self._rmw_done: Optional[Callable[[int], None]] = None
        self._rmw_bounce: Optional[Callable[[], None]] = None
        self._cb_read_hit = self._read_hit_complete
        self._cb_write_hit = self._write_hit_complete
        self._cb_rmw_hit = self._rmw_hit_complete

    # ------------------------------------------------------------------
    # CPU-facing: loads
    # ------------------------------------------------------------------

    def read(self, addr: int, on_done: Callable[[bool], None]) -> None:
        """Perform a load.  ``on_done(was_hit)`` fires when performed.

        The caller reads the value from the memory image inside the
        callback (that instant is the load's performance point).
        """
        line = addr - (addr % self._line_bytes)
        state = self.cache.lookup(line)
        if state is not None:
            self.stats.l1_hits += 1
            self._read_done = on_done
            self.queue.schedule(
                self._hit_cycles, self._cb_read_hit, "l1.read_hit"
            )
            return
        self.stats.l1_misses += 1
        txn = Transaction(kind=Msg.GETS, requester=self.core_id, line=line)
        t0 = self.queue.now

        def done(reply: Msg, t: Transaction) -> None:
            state = LineState.E if t.granted_exclusive else LineState.S
            self._fill(line, state)
            if self.tracer is not None:
                self.tracer.l1_miss(self.core_id, line, "GetS", t0, "filled")
            on_done(False)

        txn.on_done = done
        self._send_request(txn)

    def _read_hit_complete(self) -> None:
        cb = self._read_done
        self._read_done = None
        cb(True)

    # ------------------------------------------------------------------
    # CPU-facing: stores (write-buffer drain engine calls this)
    # ------------------------------------------------------------------

    def issue_store(
        self,
        entry,  # mem.writebuffer.StoreEntry
        on_done: Callable[[], None],
        on_bounce: Callable[[], None],
    ) -> None:
        """Try to merge the head store with the memory system."""
        line = entry.line
        state = self.cache.lookup(line)
        if state is not None and state.writable:
            # local write hit: complete after the L1 access, re-checking
            # that ownership was not lost in flight.
            self.stats.l1_hits += 1
            self._st_entry = entry
            self._st_done = on_done
            self._st_bounce = on_bounce
            self.queue.schedule(
                self._hit_cycles, self._cb_write_hit, "l1.write_hit"
            )
            return

        self.stats.l1_misses += 1
        if entry.ordered and entry.word_mask:
            kind = Msg.COND_ORDER
        elif entry.ordered:
            kind = Msg.ORDER
        else:
            kind = Msg.GETX
        txn = Transaction(
            kind=kind,
            requester=self.core_id,
            line=line,
            word_mask=entry.word_mask,
            ordered=entry.ordered,
            is_retry=entry.retries > 0,
        )
        t0 = self.queue.now

        def done(reply: Msg, t: Transaction) -> None:
            if reply is Msg.NACK_BOUNCE:
                if self.tracer is not None:
                    self.tracer.l1_miss(
                        self.core_id, line, t.kind.value, t0, "bounced"
                    )
                on_bounce()
                return
            if t.kind in (Msg.ORDER, Msg.COND_ORDER):
                # requester ends with the line Shared; the update is
                # merged at memory (§3.3.1).
                self._fill(line, LineState.S)
            else:
                self._fill(line, LineState.M)
            if self.tracer is not None:
                self.tracer.l1_miss(
                    self.core_id, line, t.kind.value, t0, "merged"
                )
            if self.recorder is not None:
                self.recorder.note_po(self.core_id, entry.po)
            self.image.write(entry.word, entry.value, self.core_id)
            on_done()

        txn.on_done = done
        self._send_request(txn)

    def _write_hit_complete(self) -> None:
        entry, on_done, on_bounce = self._st_entry, self._st_done, self._st_bounce
        self._st_entry = self._st_done = self._st_bounce = None
        if self.cache.write_hit(entry.line):
            if self.recorder is not None:
                self.recorder.note_po(self.core_id, entry.po)
            self.image.write(entry.word, entry.value, self.core_id)
            on_done()
        else:
            # ownership was lost in flight: take the miss path
            self.issue_store(entry, on_done, on_bounce)

    # ------------------------------------------------------------------
    # CPU-facing: atomic read-modify-write
    # ------------------------------------------------------------------

    def issue_rmw(
        self,
        word: int,
        apply_fn: Callable[[int], int],
        on_done: Callable[[int], None],
        on_bounce: Callable[[], None],
        po: int = 0,
    ) -> None:
        """Acquire write permission, then atomically update the image."""
        line = word - (word % self._line_bytes)
        state = self.cache.lookup(line)
        if state is not None and state.writable:
            self.stats.l1_hits += 1
            self._rmw_word = word
            self._rmw_po = po
            self._rmw_apply = apply_fn
            self._rmw_done = on_done
            self._rmw_bounce = on_bounce
            self.queue.schedule(
                self._hit_cycles, self._cb_rmw_hit, "l1.rmw_hit"
            )
            return

        self.stats.l1_misses += 1
        txn = Transaction(kind=Msg.GETX, requester=self.core_id, line=line)
        t0 = self.queue.now

        def done(reply: Msg, t: Transaction) -> None:
            if reply is Msg.NACK_BOUNCE:
                if self.tracer is not None:
                    self.tracer.l1_miss(
                        self.core_id, line, "GetX", t0, "bounced"
                    )
                on_bounce()
                return
            self._fill(line, LineState.M)
            if self.tracer is not None:
                self.tracer.l1_miss(self.core_id, line, "GetX", t0, "merged")
            if self.recorder is not None:
                self.recorder.note_po(self.core_id, po)
            old, _new = self.image.rmw(word, apply_fn, self.core_id)
            on_done(old)

        txn.on_done = done
        self._send_request(txn)

    def _rmw_hit_complete(self) -> None:
        word, po = self._rmw_word, self._rmw_po
        apply_fn, on_done, on_bounce = (
            self._rmw_apply, self._rmw_done, self._rmw_bounce
        )
        self._rmw_apply = self._rmw_done = self._rmw_bounce = None
        if self.cache.write_hit(word - (word % self._line_bytes)):
            if self.recorder is not None:
                self.recorder.note_po(self.core_id, po)
            old, _new = self.image.rmw(word, apply_fn, self.core_id)
            on_done(old)
        else:
            self.issue_rmw(word, apply_fn, on_done, on_bounce, po)

    # ------------------------------------------------------------------
    # network-facing: coherence requests arriving at this core
    # ------------------------------------------------------------------

    def handle_inv(self, txn: Transaction):
        """Answer an invalidation.  Returns (resp, was_dirty, true_sharing).

        BS checked before the cache; line-granularity comparison
        (paper §3.2 and Fig. 4a: word-granularity matching would miss
        false-sharing cycles and be incorrect).
        """
        line = txn.line
        if self.bs.match_line(line):
            if not txn.ordered:
                self.bs.note_bounce()
                if self.on_bs_bounce is not None:
                    self.on_bs_bounce()
                return Msg.INV_BOUNCE, False, False
            true_sharing = self.bs.true_sharing(line, txn.word_mask)
            state = self.cache.invalidate(line)
            if self.sanitizer is not None:
                self.sanitizer.on_l1_inv(self, line, keep_sharer=True)
            return Msg.INV_KEEP_SHARER, state is LineState.M, true_sharing
        if (self.faults is not None and not txn.ordered
                and self.faults.bs_amplify(self.core_id, line)):
            # adversarial amplification: answer as if the BS held the
            # line (writer's whole transaction fails and retries) but
            # leave the cache and the real BS untouched.  Ordered
            # requests are never amplified — their non-bounceability is
            # WS+/SW+'s forward-progress guarantee.
            return Msg.INV_BOUNCE, False, False
        state = self.cache.invalidate(line)
        if self.sanitizer is not None:
            self.sanitizer.on_l1_inv(self, line, keep_sharer=False)
        return Msg.INV_ACK, state is LineState.M, False

    def handle_downgrade(self, line: int) -> bool:
        """M/E -> S for a remote read.  Never bounced (§5.1): a
        downgrade does not hurt the BS's ability to watch future writes.
        Returns True if dirty data is flushed."""
        state = self.cache.lookup(line, touch=False)
        if state is None:
            return False
        self.cache.set_state(line, LineState.S)
        return state is LineState.M

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _send_request(self, txn: Transaction) -> None:
        # amap.home_bank inlined (block-interleaved home mapping)
        bank_id = (txn.line // self._interleave) % self._num_banks
        bank = self.banks[bank_id]
        lat = self.noc.send_cost(self.core_id, bank_id, txn.kind, retry=txn.is_retry)
        self.queue.schedule(lat, lambda: bank.receive(txn), "l1.request")

    def _fill(self, line: int, state: LineState) -> None:
        evicted = self.cache.insert(line, state)
        if evicted is None:
            return
        victim_line, victim_state = evicted
        self.stats.l1_evictions += 1
        if victim_state is LineState.M:
            self._writeback(victim_line)
        # clean evictions are silent: the directory still lists us as a
        # sharer/owner, which also preserves BS monitoring for free.

    def _writeback(self, victim_line: int) -> None:
        keep = {self.core_id} if self.bs.match_line(victim_line) else None
        if self.tracer is not None:
            self.tracer.writeback(self.core_id, victim_line, keep is not None)
        txn = Transaction(
            kind=Msg.PUTM,
            requester=self.core_id,
            line=victim_line,
            keep_sharers=keep,
        )
        bank_id = self.amap.home_bank(victim_line)
        bank = self.banks[bank_id]
        lat = self.noc.send_cost(self.core_id, bank_id, Msg.PUTM)
        self.queue.schedule(lat, lambda: bank.receive(txn), "l1.putm")

    # --- WeeFence GRT access ------------------------------------------

    def grt_deposit(
        self,
        bank_id: int,
        fence_id: int,
        lines,
        on_done: Callable[[set], None],
        global_view: bool = False,
    ) -> None:
        """Deposit one fence's PS at *bank_id*'s GRT; deliver the
        remote PS back to the core.

        ``global_view`` models the idealized (unimplementable) WeeFence
        of the ``wee_ideal`` ablation: the reply atomically reflects
        every directory module's GRT, not just the deposit module's.
        """
        bank = self.banks[bank_id]
        lat_out = self.noc.send_cost(self.core_id, bank_id, Msg.GRT_DEPOSIT)
        if self.tracer is not None:
            t0 = self.queue.now
            inner_done = on_done

            def on_done(remote, _inner=inner_done, _t0=t0):
                self.tracer.grt_deposit(
                    self.core_id, bank_id, len(lines), _t0
                )
                _inner(remote)

        def deposit():
            remote = bank.grt_deposit(self.core_id, fence_id, set(lines))
            if global_view:
                for other in self.banks:
                    if other is not bank:
                        for (core, _fid), ps in other.grt.items():
                            if core != self.core_id:
                                remote |= ps
            lat_back = self.noc.send_cost(bank_id, self.core_id, Msg.GRT_DEPOSIT)
            self.queue.schedule(lat_back, lambda: on_done(remote), "l1.grt_reply")

        self.queue.schedule(lat_out, deposit, "l1.grt_deposit")

    def grt_withdraw(self, bank_id: int, fence_id: int) -> None:
        bank = self.banks[bank_id]
        lat = self.noc.send_cost(self.core_id, bank_id, Msg.GRT_WITHDRAW)
        self.queue.schedule(
            lat,
            lambda: bank.grt_withdraw(self.core_id, fence_id),
            "l1.grt_withdraw",
        )
