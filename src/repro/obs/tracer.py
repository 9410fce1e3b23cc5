"""The trace recorder: typed span/instant records for one run.

Record model
------------
A record is one of

* a **span** (``ph="X"``): an episode with a start cycle and duration —
  fence episodes, bounce→retry chains, W+ recovery timelines, directory
  transactions, L1 miss round trips, NoC message flights, GRT deposits,
  fence-induced load stalls;
* an **instant** (``ph="i"``): a point event — directory bounces,
  Order/Conditional-Order completions, CO failures, PutM writebacks,
  W+ timeout arming, RMW retries, Order promotions, l-mf/C-fence
  fast-path decisions;
* a **counter sample** (``ph="C"``): a numeric timeseries point —
  write-buffer depth per core.

Recorded now, formatted at export.  A hook appends one *flat record*
``(kind, track, ts, dur, *fields)`` to ``Tracer.records``; *kind* indexes
:data:`KINDS`, the one table that says what such a record is — ``(ph,
name, cat, arg field names)`` — and the record carries one value per
field name, in order.  A record complete when its hook fires is a
tuple; a span that a later hook closes is a list.  Episodes whose args
grow over their life (``sf``, ``wf``, ``bounce_chain``, ``recovery``) or
are free-form (``fault``, ``sanitizer_violation``) carry an args dict
in their last slot instead; a ``dir_txn``, the one hot span closed
later, stays flat and its kind says how far it got.

:class:`TraceEvent` is the *read-side view* of a record: ``events``,
``spans()``, ``instants()``, ``count()`` and ``tail()`` build views on
request (choosing records by kind first), :mod:`repro.obs.export`
formats most records straight from their slots, and
:func:`repro.obs.analyze.load_jsonl` returns views of what it read.  A
view is a snapshot: query again after a later hook call.

Tracks mirror the machine: one per core, one per directory bank, one
for the NoC.  The exporters map them onto Chrome ``trace_event``
threads so Perfetto shows one swimlane per core plus directory/NoC
lanes.

Consistency contract (pinned by ``tests/obs/test_trace_consistency``):
every hook is emitted at the *same site* that increments the
corresponding :class:`~repro.common.stats.MachineStats` counter, so
counts derived from a trace reconcile exactly with the stats of the
same run — e.g. ``#sf spans + #converted wf spans == total_sf`` and
``#bounce instants == stats.bounces``.

Hook cost contract: hooks are only ever reached behind a
``tracer is None`` guard at the call site (``NULL_TRACER`` *is*
``None``); a disabled run executes one attribute load + identity test
per guarded site and nothing else.  When *on*, a hook of a fixed-shape
kind reads the clock and appends one tuple — no object, no dict, no
string; names, arg keys and JSON are the exporter's work
(referee: ``bench/``'s ``probes_on`` ratios).
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: The "disabled" tracer. Deliberately ``None`` — hot paths guard with
#: ``tracer is None`` (pointer identity) rather than calling through a
#: null object, so tracing-off costs no dynamic dispatch.
NULL_TRACER = None

# Track ids (exporters map these to Chrome tids / Perfetto lanes).
#: directory bank *b* traces on track ``TRACK_DIR_BASE + b``
TRACK_DIR_BASE = 100
#: all NoC message spans share one track
TRACK_NOC = 900
#: sanitizer violations that belong to no core
TRACK_SANITIZER = 901

#: The kind table: ``KINDS[kind] == (ph, name, cat, arg field names)``.
#: Field names ``None``: the record's last slot is its args dict (or
#: ``None``).  Name ``None``: the record carries its name in slot 4.
KINDS: List[tuple] = []


def _kind(ph: str, name: Optional[str], cat: str, fields=()) -> int:
    KINDS.append((ph, name, cat, fields))
    return len(KINDS) - 1


_DIR_TXN = ("txn_id", "kind", "line", "requester")
_DIR_OP = ("line", "requester")

# episodes whose args grow until a later hook closes them
SF = _kind("X", "sf", "fence", None)
WF = _kind("X", "wf", "fence", None)
BOUNCE_CHAIN = _kind("X", "bounce_chain", "bounce", None)
RECOVERY = _kind("X", "recovery", "recovery", None)
# free-form args under a per-site name
FAULT = _kind("i", None, "fault", None)
SANITIZER = _kind("i", None, "sanitizer", None)
# a directory transaction: open, replied to, or cut off by finalize()
DIR_TXN_OPEN = _kind("X", "dir_txn", "dir", _DIR_TXN)
DIR_TXN = _kind("X", "dir_txn", "dir", _DIR_TXN + ("reply",))
DIR_TXN_CUT = _kind("X", "dir_txn", "dir", _DIR_TXN + ("incomplete",))
# complete when the hook fires
WF_TRIVIAL = _kind("X", "wf", "fence", ("trivial",))
LOAD_STALL = _kind("X", "load_stall", "stall", ("reason",))
MEM_STALL = _kind("X", "mem_stall", "stall", ("charge",))
WB_FULL_STALL = _kind("X", "wb_full_stall", "stall")
RMW_STALL = _kind("X", "rmw_stall", "stall", ("charge",))
RMW_RETRY = _kind("i", "rmw_retry", "bounce", ("word",))
WPLUS_TIMEOUT = _kind("i", "wplus_timeout", "recovery", ("delay",))
STORM_DEMOTION = _kind("i", "storm_demotion", "recovery", ("until",))
ORDER_PROMOTION = _kind("i", "order_promotion", "fence",
                        ("count", "conditional"))
LMF_FAST = _kind("i", "lmf_fast", "fence")
LMF_FALLBACK = _kind("i", "lmf_fallback", "fence")
CFENCE_SKIP = _kind("i", "cfence_skip", "fence")
CFENCE_STALL = _kind("i", "cfence_stall", "fence")
GRT_DEPOSIT = _kind("X", "grt_deposit", "grt", ("bank", "ps_lines"))
L1_MISS = _kind("X", "l1_miss", "l1", ("line", "kind", "outcome"))
WRITEBACK = _kind("i", "writeback", "l1", ("line", "keep_sharer"))
PUTM = _kind("i", "putm", "dir", _DIR_OP)
BOUNCE = _kind("i", "bounce", "dir", _DIR_OP)
ORDER = _kind("i", "order", "dir", _DIR_OP)
COND_ORDER = _kind("i", "cond_order", "dir", _DIR_OP)
CO_FAIL = _kind("i", "co_fail", "dir", _DIR_OP)
MSG = _kind("X", "msg", "noc", ("src", "dst", "kind", "bytes"))
MSG_RETRY = _kind("X", "msg", "noc", ("src", "dst", "kind", "bytes", "retry"))
WB_DEPTH = _kind("C", "wb_depth", "wb", ("value",))
CORE_SUMMARY = _kind("i", "core_summary", "summary",
                     ("busy", "fence_stall", "other_stall", "cycles"))

#: What an exporter may assume of a field without looking at the value:
#: identifier strings (enum values, nothing to escape) here, bools there,
#: an int or float in every other field.
STR_FIELDS = {"kind", "outcome", "reason", "reply"}
BOOL_FIELDS = {"trivial", "conditional", "keep_sharer", "retry", "incomplete"}


class TraceEvent:
    """One trace record as read back (span, instant or counter sample)."""

    __slots__ = ("ph", "track", "name", "cat", "ts", "dur", "args")

    def __init__(self, ph, track, name, cat, ts, dur=None, args=None):
        self.ph = ph        # "X" span | "i" instant | "C" counter
        self.track = track  # core id, TRACK_DIR_BASE+bank, TRACK_NOC, ...
        self.name = name
        self.cat = cat
        self.ts = ts        # start cycle
        self.dur = dur      # cycles (None while the span is open)
        self.args = args    # dict or None

    @property
    def open(self) -> bool:
        return self.ph == "X" and self.dur is None

    def to_dict(self) -> dict:
        d = {
            "ph": self.ph, "track": self.track, "name": self.name,
            "cat": self.cat, "ts": self.ts,
        }
        if self.dur is not None:
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<TraceEvent {self.ph} {self.name} track={self.track} "
                f"ts={self.ts} dur={self.dur}>")


def view(rec) -> TraceEvent:
    """The :class:`TraceEvent` view of one flat record."""
    ph, name, cat, fields = KINDS[rec[0]]
    if fields is None:
        return TraceEvent(ph, rec[1], name or rec[4], cat, rec[2], rec[3],
                          rec[-1])
    return TraceEvent(ph, rec[1], name, cat, rec[2], rec[3],
                      dict(zip(fields, rec[4:])) if fields else None)


def select(events, ph: Optional[str], name: Optional[str] = None,
           cat: Optional[str] = None) -> List[TraceEvent]:
    """The views among *events* with this phase, name and category
    (``None``: any) — the one query behind ``spans()`` / ``instants()``
    of a live tracer and of a loaded :class:`repro.obs.analyze.TraceData`."""
    return [ev for ev in events
            if (ph is None or ev.ph == ph)
            and (name is None or ev.name == name)
            and (cat is None or ev.cat == cat)]


class Tracer:
    """Collects flat trace records for one machine run.

    Spans are appended to ``records`` when they *open* (so the list is
    naturally start-ordered) and their ``dur`` is filled in when they
    close; :meth:`finalize` closes whatever is still open at the end of
    the run with an ``incomplete`` marker, so cycle-budget cutoffs are
    visible in the trace instead of silently vanishing.

    ``max_events`` bounds the buffer: past the cap, *new* records are
    counted in ``dropped`` instead of stored (already-open spans still
    close normally).  The default is unbounded — a full trace is the
    point of an explicitly-traced run.
    """

    def __init__(self, max_events: Optional[int] = None):
        self.records: list = []
        self.max_events = max_events
        self.dropped = 0
        self._queue = None  # bound by Machine.attach_tracer, before any hook
        #: the spans a later hook closes: (kind, core or bank[, id]) -> record
        self._open: Dict[tuple, list] = {}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def bind(self, queue) -> None:
        """Attach the machine's event queue (the trace clock)."""
        self._queue = queue

    def _emit(self, rec) -> bool:
        """Store *rec*, or count it in ``dropped`` past the cap."""
        if self.max_events is not None \
                and len(self.records) >= self.max_events:
            self.dropped += 1
            return False
        self.records.append(rec)
        return True

    def _begin(self, key: tuple, rec: list) -> None:
        """Store a span that a later hook closes; index it if stored."""
        if self._emit(rec):
            self._open[key] = rec

    def _end(self, key: tuple, tail: float = 0, /, **args) -> None:
        """Close a dict-carrying span *tail* cycles from now, adding
        *args* — if it was stored and is still open."""
        rec = self._open.pop(key, None)
        if rec is not None:
            rec[3] = (self._queue.now - rec[2]) + tail
            rec[4] = dict(rec[4] or (), **args)

    # ------------------------------------------------------------------
    # fence episodes (core tracks)
    # ------------------------------------------------------------------

    def sf_begin(self, core: int, demoted: bool = False) -> None:
        """A strong fence started executing (drain + serialization).

        ``demoted=True`` marks a Wee wf that failed PS confinement at
        retirement and runs this dynamic instance as an sf.
        """
        self._begin((SF, core), [SF, core, self._queue.now, None,
                                 {"demoted": True} if demoted else None])

    def sf_end(self, core: int, extra: float = 0, **attrs) -> None:
        """The sf's drain finished; *extra* covers serialization cycles
        charged past the drain point.  *extra* is recorded in the span
        args so offline attribution can split the drain window
        (``[ts, ts+dur-extra]``) from the serialization tail."""
        self._end((SF, core), extra, extra=extra, **attrs)

    def sf_abort(self, core: int, reason: str = "recovery") -> None:
        """An sf wait was squashed (W+ rollback hit mid-drain)."""
        self._end((SF, core), outcome=reason)

    def wf_retire(self, core: int, fence_id: int, pending_stores: int) -> None:
        """A weak fence retired with *pending_stores* pre-fence stores."""
        self._begin((WF, core, fence_id), [
            WF, core, self._queue.now, None,
            {"fence_id": fence_id, "pending_stores": pending_stores}])

    def wf_trivial(self, core: int) -> None:
        """A wf retired over an empty write buffer: complete at birth."""
        self._emit((WF_TRIVIAL, core, self._queue.now, 0, True))

    def wf_convert(self, core: int, fence_id: int) -> None:
        """Wee dynamic conversion: a post-fence access left the confined
        directory module mid-flight; the wf is re-counted as an sf."""
        rec = self._open.get((WF, core, fence_id))
        if rec is not None:
            rec[4]["converted"] = True

    def wf_complete(self, core: int, fence_id: int, bs_lines: int) -> None:
        """All pre-fence stores merged; the fence group completed."""
        self._end((WF, core, fence_id), bs_lines=bs_lines)

    def wf_unwind_all(self, core: int, reason: str = "recovery") -> int:
        """A W+ rollback cleared every incomplete fence of *core*."""
        unwound = [key for key in self._open if key[:2] == (WF, core)]
        for key in unwound:  # oldest first
            self._end(key, outcome=reason)
        return len(unwound)

    # ------------------------------------------------------------------
    # fence-induced load stalls (core tracks)
    # ------------------------------------------------------------------

    def load_stall(self, core: int, t0: int, reason: str) -> None:
        """A parked post-fence load resumed; record the whole stall."""
        self._emit((LOAD_STALL, core, t0, self._queue.now - t0, reason))

    # ------------------------------------------------------------------
    # other-stall charges (core tracks) — one span per coarse
    # ``other_stall`` charge, carrying the exact charged amount so a
    # trace replay reattributes bit-identically
    # ------------------------------------------------------------------

    def mem_stall(self, core: int, t0: int, charge: float) -> None:
        """A demand load completed; *charge* is the latency beyond the
        issue slot that was billed to ``other_stall``."""
        self._emit((MEM_STALL, core, t0, self._queue.now - t0, charge))

    def wb_full_stall(self, core: int, t0: int) -> None:
        """A store sat blocked on a full write buffer; the span duration
        equals the billed backpressure wait."""
        self._emit((WB_FULL_STALL, core, t0, self._queue.now - t0))

    def rmw_stall(self, core: int, t0: int, charge: float) -> None:
        """An atomic RMW completed; *charge* is the drain + round-trip
        latency beyond the issue slot billed to ``other_stall``."""
        self._emit((RMW_STALL, core, t0, self._queue.now - t0, charge))

    # ------------------------------------------------------------------
    # bounce → retry chains (core tracks, keyed by write)
    # ------------------------------------------------------------------

    def store_bounce(self, core: int, store_id: int, word: int, line: int,
                     retries: int, ordered: bool) -> None:
        """The head store's transaction was refused by a remote BS."""
        key = (BOUNCE_CHAIN, core, store_id)
        rec = self._open.get(key)
        if rec is None:
            self._begin(key, [
                BOUNCE_CHAIN, core, self._queue.now, None,
                {"store_id": store_id, "word": word, "line": line,
                 "retries": retries, "ordered": ordered}])
        else:
            rec[4]["retries"] = retries
            if ordered:
                rec[4]["ordered"] = True

    def store_chain_end(self, core: int, store_id: int,
                        outcome: str = "merged") -> None:
        """The bounced write finally merged (or was promoted and merged)."""
        self._end((BOUNCE_CHAIN, core, store_id), outcome=outcome)

    def rmw_retry(self, core: int, word: int) -> None:
        """An atomic RMW's GetX was bounced and will retry."""
        self._emit((RMW_RETRY, core, self._queue.now, 0, word))

    # ------------------------------------------------------------------
    # W+ recovery timelines (core tracks)
    # ------------------------------------------------------------------

    def timeout_armed(self, core: int, delay: int) -> None:
        """Deadlock suspicion (bouncing ∧ being-bounced): timer armed."""
        self._emit((WPLUS_TIMEOUT, core, self._queue.now, 0, delay))

    def recovery_begin(self, core: int, fence_id: int, checkpoint,
                       dropped_stores: int, bs_cleared: int,
                       fences_unwound: int) -> None:
        """Timeout expired with the suspicion still true: rollback."""
        self._begin((RECOVERY, core), [
            RECOVERY, core, self._queue.now, None,
            {"fence_id": fence_id, "checkpoint": checkpoint,
             "dropped_stores": dropped_stores, "bs_cleared": bs_cleared,
             "fences_unwound": fences_unwound}])

    def recovery_end(self, core: int, extra: float = 0) -> None:
        """Post-rollback drain finished (+ *extra* restart cycles).
        Like :meth:`sf_end`, *extra* goes into the args for replay."""
        self._end((RECOVERY, core), extra, extra=extra)

    def storm_demotion(self, core: int, until: int) -> None:
        """Recovery-storm monitor demoted this core's wfs to sf."""
        self._emit((STORM_DEMOTION, core, self._queue.now, 0, until))

    # ------------------------------------------------------------------
    # fault injection (any track)
    # ------------------------------------------------------------------

    def fault(self, track: int, site: str, args: Optional[dict] = None) -> None:
        """One injected fault fired (repro.faults); *track* places the
        instant on the lane of the component that absorbed it."""
        self._emit((FAULT, track, self._queue.now, 0, f"fault_{site}", args))

    # ------------------------------------------------------------------
    # protocol sanitizer (core tracks, or TRACK_SANITIZER when core-less)
    # ------------------------------------------------------------------

    def sanitizer_violation(self, core: Optional[int], invariant: str,
                            args: Optional[dict] = None) -> None:
        """The runtime sanitizer observed a structural violation."""
        track = core if core is not None else TRACK_SANITIZER
        self._emit((SANITIZER, track, self._queue.now, 0,
                    f"sanitizer_{invariant}", args))

    # ------------------------------------------------------------------
    # fence-design internals (core tracks)
    # ------------------------------------------------------------------

    def order_promotion(self, core: int, count: int, conditional: bool) -> None:
        """WS+/SW+ promoted *count* bouncing pre-wf writes to Order/CO."""
        self._emit((ORDER_PROMOTION, core, self._queue.now, 0,
                    count, conditional))

    def lmf_decision(self, core: int, fast: bool) -> None:
        """l-mf took the store-conditional fast path (or fell back)."""
        self._emit((LMF_FAST if fast else LMF_FALLBACK, core,
                    self._queue.now, 0))

    def cfence_decision(self, core: int, skipped: bool) -> None:
        """C-fence consulted the centralized table: skip or stall."""
        self._emit((CFENCE_SKIP if skipped else CFENCE_STALL, core,
                    self._queue.now, 0))

    def cfence_charge(self, core: int, charge: float) -> None:
        """The table let the fence go and its stall was billed, the
        reply's flight included.  Nothing to record: the ``sf`` span
        closes when that reply lands, and its length is *charge*."""

    def grt_deposit(self, core: int, bank: int, n_lines: int, t0: int) -> None:
        """Wee GRT deposit round trip completed (reply back at core)."""
        self._emit((GRT_DEPOSIT, core, t0, self._queue.now - t0,
                    bank, n_lines))

    # ------------------------------------------------------------------
    # L1 (core tracks)
    # ------------------------------------------------------------------

    def l1_miss(self, core: int, line: int, kind: str, t0: int,
                outcome: str) -> None:
        """An L1 miss transaction finished (filled / merged / bounced)."""
        self._emit((L1_MISS, core, t0, self._queue.now - t0,
                    line, kind, outcome))

    def writeback(self, core: int, line: int, keep_sharer: bool) -> None:
        """A dirty eviction issued a PutM (keep-sharer when BS-held)."""
        self._emit((WRITEBACK, core, self._queue.now, 0, line, keep_sharer))

    # ------------------------------------------------------------------
    # directory transactions (dir tracks)
    # ------------------------------------------------------------------

    def dir_begin(self, bank: int, txn_id: int, kind: str, line: int,
                  requester: int) -> None:
        """A coherence request arrived at its home bank."""
        self._begin((DIR_TXN_OPEN, bank, txn_id), [
            DIR_TXN_OPEN, TRACK_DIR_BASE + bank, self._queue.now, None,
            txn_id, kind, line, requester])

    def dir_end(self, bank: int, txn_id: int, reply: str) -> None:
        """The transaction's reply was processed; the line is released."""
        rec = self._open.pop((DIR_TXN_OPEN, bank, txn_id), None)
        if rec is not None:
            rec[0] = DIR_TXN
            rec[3] = self._queue.now - rec[2]
            rec.append(reply)

    def dir_putm(self, bank: int, line: int, requester: int) -> None:
        """A fire-and-forget dirty writeback arrived."""
        self._emit((PUTM, TRACK_DIR_BASE + bank, self._queue.now, 0,
                    line, requester))

    def dir_bounce(self, bank: int, line: int, requester: int) -> None:
        """A GetX failed wholesale: some sharer's BS refused the INV."""
        self._emit((BOUNCE, TRACK_DIR_BASE + bank, self._queue.now, 0,
                    line, requester))

    def dir_order(self, bank: int, line: int, requester: int,
                  conditional: bool) -> None:
        """An Order / Conditional-Order operation completed (§3.3.1/2)."""
        self._emit((COND_ORDER if conditional else ORDER,
                    TRACK_DIR_BASE + bank, self._queue.now, 0,
                    line, requester))

    def dir_co_fail(self, bank: int, line: int, requester: int) -> None:
        """A Conditional Order found a true-sharing BS match and failed."""
        self._emit((CO_FAIL, TRACK_DIR_BASE + bank, self._queue.now, 0,
                    line, requester))

    # ------------------------------------------------------------------
    # NoC (single shared track)
    # ------------------------------------------------------------------

    def noc_msg(self, src: int, dst: int, kind: str, nbytes: int,
                lat: int, retry: bool) -> None:
        """One message flight; span duration = delivery latency."""
        if retry:
            self._emit((MSG_RETRY, TRACK_NOC, self._queue.now, lat,
                        src, dst, kind, nbytes, True))
        else:
            self._emit((MSG, TRACK_NOC, self._queue.now, lat,
                        src, dst, kind, nbytes))

    # ------------------------------------------------------------------
    # write buffer (core tracks, counter samples)
    # ------------------------------------------------------------------

    def wb_depth(self, core: int, depth: int) -> None:
        """Write-buffer occupancy changed (push or head merge)."""
        self._emit((WB_DEPTH, core, self._queue.now, 0, depth))

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Close every still-open span as ``incomplete`` (cycle-budget
        cutoffs, in-flight transactions at quiesce)."""
        for key in list(self._open):
            if key[0] != DIR_TXN_OPEN:
                self._end(key, incomplete=True)
        for rec in self._open.values():  # the flat spans: their kind says it
            rec[0] = DIR_TXN_CUT
            rec[3] = self._queue.now - rec[2]
            rec.append(True)
        self._open.clear()

    def core_summaries(self, stats) -> None:
        """Append one ``core_summary`` instant per core with its coarse
        cycle breakdown.  Emitted by ``Machine.run()`` after the clock
        stops; appended directly (past any ``max_events`` cap — replay
        needs them, and there are only ``num_cores`` of them)."""
        now = self._queue.now
        for cid, b in enumerate(stats.breakdown):
            self.records.append((CORE_SUMMARY, cid, now, 0, b.busy,
                                 b.fence_stall, b.other_stall, now))

    # ------------------------------------------------------------------
    # queries (summary / tests) — views are built on request
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """A view of every record, in record order."""
        return [view(rec) for rec in self.records]

    def tail(self, n: int) -> List[TraceEvent]:
        """Views of the last *n* (> 0) records only."""
        return [view(rec) for rec in self.records[-n:]]

    def _query(self, ph: Optional[str], name: Optional[str],
               cat: Optional[str]) -> List[TraceEvent]:
        """:func:`select` over views of the records whose *kind* can
        match (a free-form kind matches any name: its records carry
        theirs) — no view is built for the rest."""
        kinds = {kind for kind, (kph, kname, kcat, _) in enumerate(KINDS)
                 if (ph is None or kph == ph)
                 and (name is None or kname is None or kname == name)
                 and (cat is None or kcat == cat)}
        return select([view(rec) for rec in self.records if rec[0] in kinds],
                      ph, name, cat)

    def spans(self, name: Optional[str] = None,
              cat: Optional[str] = None) -> List[TraceEvent]:
        return self._query("X", name, cat)

    def instants(self, name: Optional[str] = None,
                 cat: Optional[str] = None) -> List[TraceEvent]:
        return self._query("i", name, cat)

    def count(self, name: str) -> int:
        return len(self._query(None, name, None))


#: The hook names: what a component may call on the listener in its
#: ``tracer`` slot — :class:`Tracer`'s public methods less its lifecycle
#: and queries.  :class:`repro.obs.attrib.CycleAttribution` answers every
#: one of them, so a hook added above cannot crash an attributed run.
HOOKS = tuple(
    name for name, member in vars(Tracer).items()
    if callable(member) and not name.startswith("_")
    and name not in {"bind", "finalize", "core_summaries",
                     "tail", "spans", "instants", "count"})
