"""Full-map MESI directory banks with the paper's fence extensions.

One bank per tile (paper Table 2: "a portion of the directory" per
core).  Lines are home-mapped to banks by line interleaving.  Each bank
serializes coherence transactions per line (a line with a transaction in
flight is *busy*; later requests wait in FIFO order), which is what
makes the value/timing split of this simulator race-free.

Extensions over vanilla MESI, all from the paper:

* **Bounce** — an invalidation that hits a remote Bypass Set with the
  O bit clear is refused; the whole write transaction fails with
  ``NACK_BOUNCE`` and the writer retries (§2.2, Fig. 2/3).
* **Order** — an O-bit write invalidates all sharers but *keeps* the
  BS-matching ones as directory sharers, merges the update, and leaves
  the requester in Shared state (§3.3.1, WS+).
* **Conditional Order** — like Order but fails (and retries) while any
  BS match is true-sharing at word granularity (§3.3.2, SW+).
* **Writeback-keep-sharer** — a dirty eviction of a line that is in the
  evictor's BS keeps the evictor as a sharer so it continues to observe
  future writes (§5.1).
* **GRT module** — WeeFence's Global Reorder Table slice: pending-set
  deposit/withdraw and remote-PS collection (§2.2, Wee baseline).

The shared L2 bank is modeled as an LRU presence set deciding whether a
data fill comes from the bank (11-cycle RT) or off-chip (200-cycle RT).
Values never live here — see :mod:`repro.mem.memory`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.common.errors import ProtocolError
from repro.common.events import EventQueue
from repro.common.params import MachineParams
from repro.common.stats import MachineStats
from repro.mem.messages import Msg, Transaction
from repro.mem.noc import MeshNoc


@dataclass
class DirEntry:
    """Directory state for one line: exclusive owner XOR sharer set."""

    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)
    #: ``txn_id`` of the grant that made the current owner; a PutM
    #: answers one grant and is stale against any other
    grant: Optional[int] = None

    def caching_cores(self) -> Set[int]:
        cores = set(self.sharers)
        if self.owner is not None:
            cores.add(self.owner)
        return cores


class DirectoryBank:
    """One directory + L2 bank tile."""

    def __init__(
        self,
        bank_id: int,
        params: MachineParams,
        stats: MachineStats,
        noc: MeshNoc,
        queue: EventQueue,
    ):
        self.bank_id = bank_id
        self.params = params
        self.stats = stats
        self.noc = noc
        self.queue = queue
        self.entries: Dict[int, DirEntry] = {}
        self._busy: Dict[int, Transaction] = {}
        self._waiting: Dict[int, deque] = {}
        #: L2 presence (LRU): line -> True
        self._l2: "OrderedDict[int, bool]" = OrderedDict()
        self._l2_capacity = max(
            1, params.l2_bank_size_bytes // params.line_bytes
        )
        # off-chip fetch cost through the single memory port (tile 0):
        # fixed per bank, so fold the NoC round trip once here instead
        # of recomputing it on every L2 miss.
        self._mem_fetch_cycles = (
            2 * noc.latency(bank_id, MeshNoc.MEMORY_NODE, Msg.GETS)
            + params.memory_cycles
        )
        #: WeeFence GRT slice: (core, fence_id) -> pending-set lines.
        #: Keyed per dynamic fence — a core can have several fences in
        #: flight (TSO back-to-back barriers) and each deposit must
        #: survive until exactly its own fence completes.
        self.grt: Dict[tuple, Set[int]] = {}
        #: wired by the Machine: list of L1 controllers, index = core id
        self.controllers: List = []
        #: observability hook (set by Machine.attach_tracer)
        self.tracer = None
        #: fault-injection hook (set by Machine.attach_faults)
        self.faults = None
        #: protocol-sanitizer hook (set by Machine.attach_sanitizer)
        self.sanitizer = None

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        """What a quiet bank holds beyond a fresh one (no line busy,
        no GRT deposit): ``(line, owner, sharers, grant)`` per entry,
        and the L2 lines in LRU order."""
        return (tuple((line, e.owner, tuple(e.sharers), e.grant)
                      for line, e in self.entries.items()),
                tuple(self._l2))

    def restore(self, snapshot: tuple) -> None:
        """Give a fresh bank the state :meth:`snapshot` took."""
        entries, l2 = snapshot
        self.entries = {line: DirEntry(owner, set(sharers), grant)
                        for line, owner, sharers, grant in entries}
        self._l2 = OrderedDict.fromkeys(l2, True)

    # ------------------------------------------------------------------
    # request entry points
    # ------------------------------------------------------------------

    def receive(self, txn: Transaction) -> None:
        """A request message has arrived at this bank."""
        self.stats.coherence_transactions += 1
        if txn.kind is Msg.PUTM:
            if self.tracer is not None:
                self.tracer.dir_putm(self.bank_id, txn.line, txn.requester)
            self._receive_putm(txn)
            return
        if self.tracer is not None:
            # the span opens at arrival, so per-line FIFO queueing time
            # is part of the transaction's timeline
            self.tracer.dir_begin(
                self.bank_id, txn.txn_id, txn.kind.value, txn.line,
                txn.requester,
            )
        if txn.line in self._busy:
            self._waiting.setdefault(txn.line, deque()).append(txn)
            return
        self._busy[txn.line] = txn
        self.queue.schedule(
            self.params.l2_hit_cycles, lambda: self._begin(txn), "dir.begin"
        )

    def _receive_putm(self, txn: Transaction) -> None:
        """Dirty-eviction writeback (fire-and-forget from the evictor)."""
        # PutM does not contend for the busy slot: it carries no
        # permission change other than clearing ownership, and a stale
        # PutM is simply dropped.  Stale means it answers a grant other
        # than the one that made the current owner: the NoC may deliver
        # it after ownership moved away, or after the evictor itself
        # re-acquired the line (docs/PROTOCOL.md, "Writebacks").
        entry = self.entries.get(txn.line)
        if entry is None or entry.owner != txn.requester \
                or entry.grant != txn.grant:
            return
        entry.owner = None
        self._l2_fill(txn.line)
        self.stats.dirty_writebacks += 1
        if txn.keep_sharers:
            # §5.1: the evictor's BS still watches this line — keep it a
            # sharer so it sees (and can bounce) future writes.
            entry.sharers |= txn.keep_sharers
            self.stats.bs_keep_sharer += len(txn.keep_sharers)
        if self.sanitizer is not None:
            self.sanitizer.on_dir_transition(self, txn.line)

    # ------------------------------------------------------------------
    # transaction processing
    # ------------------------------------------------------------------

    def _entry(self, line: int) -> DirEntry:
        entry = self.entries.get(line)
        if entry is None:
            entry = self.entries[line] = DirEntry()
        return entry

    def _begin(self, txn: Transaction) -> None:
        entry = self._entry(txn.line)
        if txn.kind is Msg.GETS:
            self._begin_gets(txn, entry)
        elif txn.kind in (Msg.GETX, Msg.ORDER, Msg.COND_ORDER):
            if self.faults is not None and self.faults.dir_nack(
                    self.bank_id, txn.line, txn.requester, txn.kind.value):
                # transient resource NACK before any sharer is touched:
                # the requester retries (with backoff under faults).
                # GetS is never NACKed — loads have no retry path.
                self._reply(txn, Msg.NACK_BOUNCE)
                return
            self._begin_getx(txn, entry)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"bank cannot begin {txn.kind}")

    # --- reads -----------------------------------------------------------

    def _begin_gets(self, txn: Transaction, entry: DirEntry) -> None:
        if entry.owner == txn.requester:
            # the requester silently evicted its clean-exclusive copy
            entry.owner = None
        if entry.owner is not None:
            owner = entry.owner
            lat_out = self.noc.send_cost(self.bank_id, owner, Msg.DOWNGRADE,
                                         txn.line)

            def deliver():
                was_dirty = self.controllers[owner].handle_downgrade(txn.line)
                resp = Msg.WB_DATA if was_dirty else Msg.INV_ACK
                lat_back = self.noc.send_cost(owner, self.bank_id, resp,
                                              txn.line)
                self.queue.schedule(
                    lat_back,
                    lambda: self._downgrade_done(txn, owner, was_dirty),
                    "dir.downgrade_done",
                )

            self.queue.schedule(lat_out, deliver, "dir.downgrade")
            return
        self._grant(txn)

    def _downgrade_done(self, txn: Transaction, owner: int, was_dirty: bool) -> None:
        entry = self._entry(txn.line)
        if entry.owner == owner:
            entry.owner = None
            entry.sharers.add(owner)
        if was_dirty:
            self._l2_fill(txn.line)
        self._grant(txn)

    # --- writes ------------------------------------------------------------

    def _begin_getx(self, txn: Transaction, entry: DirEntry) -> None:
        txn.requester_was_sharer = txn.requester in entry.sharers \
            or entry.owner == txn.requester
        targets = entry.caching_cores() - {txn.requester}
        if not targets:
            self._resolve_getx(txn)
            return
        txn.pending_acks = len(targets)
        txn.keep_sharers = set()
        for target in sorted(targets):
            self._send_inv(txn, target)

    def _send_inv(self, txn: Transaction, target: int) -> None:
        lat_out = self.noc.send_cost(
            self.bank_id, target, Msg.INV, txn.line, retry=txn.is_retry
        )

        def deliver():
            resp, was_dirty, true_sharing = self.controllers[target].handle_inv(txn)
            resp_msg = Msg.WB_DATA if was_dirty else resp
            lat_back = self.noc.send_cost(
                target, self.bank_id, resp_msg, txn.line, retry=txn.is_retry
            )
            self.queue.schedule(
                lat_back,
                lambda: self._inv_response(txn, target, resp, was_dirty, true_sharing),
                "dir.inv_resp",
            )

        self.queue.schedule(lat_out, deliver, "dir.inv")

    def _inv_response(
        self,
        txn: Transaction,
        target: int,
        resp: Msg,
        was_dirty: bool,
        true_sharing: bool,
    ) -> None:
        entry = self._entry(txn.line)
        if was_dirty:
            self._l2_fill(txn.line)
            self.stats.dirty_writebacks += 1
        if resp is Msg.INV_ACK:
            entry.sharers.discard(target)
            if entry.owner == target:
                entry.owner = None
        elif resp is Msg.INV_BOUNCE:
            txn.bounced = True
            # the target keeps its copy and its directory presence
        elif resp is Msg.INV_KEEP_SHARER:
            # cache copy invalidated, but the BS keeps watching: the
            # directory keeps the target as a sharer (§3.3.1).
            if entry.owner == target:
                entry.owner = None
            entry.sharers.add(target)
            txn.keep_sharers.add(target)
            self.stats.bs_keep_sharer += 1
            if true_sharing:
                txn.true_sharing_seen = True
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected inv response {resp}")
        txn.pending_acks -= 1
        if txn.pending_acks == 0:
            self._resolve_getx(txn)

    def _resolve_getx(self, txn: Transaction) -> None:
        if txn.kind is Msg.GETX and txn.bounced:
            self.stats.bounces += 1
            if self.tracer is not None:
                self.tracer.dir_bounce(self.bank_id, txn.line, txn.requester)
            self._reply(txn, Msg.NACK_BOUNCE)
            return
        if txn.kind is Msg.COND_ORDER and txn.true_sharing_seen:
            # CO failure: caches were invalidated, BS holders remain
            # sharers, the update is discarded; the requester retries.
            self.stats.cond_order_failures += 1
            if self.tracer is not None:
                self.tracer.dir_co_fail(self.bank_id, txn.line, txn.requester)
            self._reply(txn, Msg.NACK_BOUNCE)
            return
        self._grant(txn)

    # --- completion -----------------------------------------------------------

    def _grant(self, txn: Transaction) -> None:
        entry = self._entry(txn.line)
        data_latency = 0
        needs_data = True
        if txn.kind is Msg.GETS:
            if not entry.sharers and entry.owner is None:
                entry.owner = txn.requester  # MESI Exclusive grant
                entry.grant = txn.txn_id
                txn.granted_exclusive = True
            else:
                entry.sharers.add(txn.requester)
                txn.granted_exclusive = False
            data_latency = self._data_source_latency(txn.line)
        elif txn.kind is Msg.GETX:
            needs_data = not txn.requester_was_sharer
            if needs_data:
                data_latency = self._data_source_latency(txn.line)
            entry.owner = txn.requester
            entry.grant = txn.txn_id
            entry.sharers.clear()
        else:  # Order / CondOrder success
            if txn.kind is Msg.ORDER:
                self.stats.order_ops += 1
            else:
                self.stats.cond_order_ops += 1
            if self.tracer is not None:
                self.tracer.dir_order(
                    self.bank_id, txn.line, txn.requester,
                    txn.kind is Msg.COND_ORDER,
                )
            # update merged at memory; everyone who kept a BS match stays
            # a sharer, the requester holds the line Shared (§3.3.1).
            entry.owner = None
            entry.sharers = set(txn.keep_sharers or ())
            entry.sharers.add(txn.requester)
            needs_data = not txn.requester_was_sharer
            if needs_data:
                data_latency = self._data_source_latency(txn.line)
        reply = Msg.DATA if needs_data else Msg.ACK
        self._reply(txn, reply, extra_latency=data_latency)

    def _reply(self, txn: Transaction, kind: Msg, extra_latency: int = 0) -> None:
        lat = self.noc.send_cost(
            self.bank_id, txn.requester, kind, txn.line, retry=txn.is_retry
        )
        done = txn.on_done

        def finish():
            # The line stays busy until the requester has processed the
            # reply (its MSHR completes): releasing earlier lets a later
            # request observe directory state ahead of the requester's
            # cache fill — a protocol race.
            if self.tracer is not None:
                self.tracer.dir_end(self.bank_id, txn.txn_id, kind.value)
            done(kind, txn)
            self._release(txn.line)

        self.queue.schedule(extra_latency + lat, finish, "dir.reply")

    def _release(self, line: int) -> None:
        self._busy.pop(line, None)
        if self.sanitizer is not None:
            # the transaction just committed and the line is (briefly)
            # not busy: the natural instant to cross-check its entry.
            self.sanitizer.on_dir_transition(self, line)
        waiting = self._waiting.get(line)
        if waiting:
            nxt = waiting.popleft()
            if not waiting:
                del self._waiting[line]
            self._busy[line] = nxt
            self.queue.schedule(
                self.params.l2_hit_cycles, lambda: self._begin(nxt), "dir.begin"
            )

    # ------------------------------------------------------------------
    # L2 presence model
    # ------------------------------------------------------------------

    def _l2_fill(self, line: int) -> None:
        self._l2[line] = True
        self._l2.move_to_end(line)
        while len(self._l2) > self._l2_capacity:
            self._l2.popitem(last=False)

    def _data_source_latency(self, line: int) -> int:
        """Extra cycles to source the line beyond the dir access."""
        l2 = self._l2
        if line in l2:
            l2.move_to_end(line)
            return 0
        self._l2_fill(line)
        return self._mem_fetch_cycles

    # ------------------------------------------------------------------
    # WeeFence GRT slice
    # ------------------------------------------------------------------

    def grt_deposit(self, core: int, fence_id: int, lines: Set[int]) -> Set[int]:
        """Deposit one fence's pending set; returns the remote PS union."""
        self.grt[(core, fence_id)] = set(lines)
        remote: Set[int] = set()
        for (other, _fid), ps in self.grt.items():
            if other != core:
                remote |= ps
        return remote

    def grt_withdraw(self, core: int, fence_id: int) -> None:
        self.grt.pop((core, fence_id), None)

    # ------------------------------------------------------------------
    # introspection (tests / invariants)
    # ------------------------------------------------------------------

    def dir_state(self, line: int) -> DirEntry:
        return self._entry(line)
