"""Sequential-consistency violation detection (Shasha–Snir style).

The paper defines an SCV as a cycle of inter-thread dependences among
overlapping data races (Fig. 1, after [29] Shasha & Snir).  We detect
them axiomatically: record every globally-performed access, build the
union of

* **po** — program order within each thread (from the op index each
  access carried when it touched the memory image),
* **rf** — read-from (each load records the write tag it returned),
* **co** — coherence order (per-word write serialization), and
* **fr** — from-read (a load reads-before every co-later write),

and look for a cycle.  An execution is sequentially consistent iff the
union is acyclic.  With fences placed per the paper's recipes the
workloads must stay acyclic; remove the fences and the classic
store-buffering cycle appears (the litmus tests assert both).

Loads satisfied by the core's own write buffer bypass the image; the
core reports them explicitly (:meth:`DependenceRecorder.note_forwarded`)
so they still appear as po-ordered accesses.  A forwarded load carries a
provisional ``("fwd", core, store_po)`` tag that graph construction
resolves to the source store's real write tag once that store has merged
(it is recorded with the same program-order index), which recovers the
load's fr edge to the store's coherence successor.
Enable recording only for small runs (``track_dependences=True``); the
graph is O(accesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SCViolationError
from repro.mem.memory import INIT_TAG, MemoryImage, WriteTag


@dataclass
class AccessEvent:
    """One globally-performed access."""

    # one is allocated per recorded access: no per-instance __dict__
    # (spelled out because dataclass(slots=True) needs Python 3.10)
    __slots__ = ("index", "kind", "core", "word", "value", "tag", "po")

    index: int
    kind: str  # "load" | "store"
    core: int
    word: int
    value: int
    #: for loads: the tag of the write read; for stores: their own tag;
    #: for write-buffer-forwarded loads: a provisional ("fwd", core,
    #: store_po) triple resolved during graph construction
    tag: tuple
    po: int


class DependenceRecorder:
    """Installs itself as the memory image's observer and logs accesses."""

    def __init__(self, image: MemoryImage):
        self.image = image
        self.events: List[AccessEvent] = []
        self._pending_po: Dict[int, int] = {}
        image.observer = self._observe

    def note_po(self, core: int, po: int) -> None:
        """Called by the core/L1 immediately before an image access."""
        self._pending_po[core] = po

    def note_forwarded(
        self, core: int, po: int, word: int, value: int, store_po: int
    ) -> None:
        """Record a load satisfied by *core*'s own write buffer.

        Forwarded loads never touch the memory image, so the observer
        hook cannot see them; the core reports them here.  *store_po*
        is the program-order index of the buffered store that supplied
        the value — once that store merges (and is recorded with the
        same po) graph construction resolves this event's provisional
        tag to the store's real write tag.
        """
        self.events.append(
            AccessEvent(
                len(self.events), "load", core, word, value,
                ("fwd", core, store_po), po,
            )
        )

    def _observe(
        self, kind: str, core: int, word: int, value: int, tag: WriteTag
    ) -> None:
        if core < 0:
            return  # initialization / debug pokes
        po = self._pending_po.pop(core, -1)
        self.events.append(
            AccessEvent(len(self.events), kind, core, word, value, tag, po)
        )

    def squash(self, core: int, po_limit: int) -> int:
        """Discard *core*'s recorded loads past *po_limit*.

        Called on a W+ rollback: post-checkpoint loads were performed
        but architecturally squashed, so they must not count as
        dependence-graph events (their re-executions will be recorded
        again).  Post-checkpoint stores never merged, hence never
        recorded.  Returns the number of events dropped.
        """
        before = len(self.events)
        self.events = [
            ev for ev in self.events
            if not (ev.core == core and ev.po > po_limit)
        ]
        for i, ev in enumerate(self.events):
            ev.index = i
        return before - len(self.events)

    def detach(self) -> None:
        self.image.observer = None


def build_dependence_graph(
    events: List[AccessEvent],
) -> Dict[int, Dict[int, str]]:
    """po ∪ rf ∪ co ∪ fr over the recorded accesses, as a successor
    map ``{event index: {successor index: edge kind}}``.

    Both levels keep insertion order — nodes in event order, a node's
    out-edges po, co, then rf/fr per load — and a repeated edge
    overwrites its kind in place.  :func:`find_scv` walks exactly that
    order, so which cycle it reports is a function of the event list.
    """
    succ: Dict[int, Dict[int, str]] = {ev.index: {} for ev in events}

    # po: per core, ordered by (po index, record order)
    by_core: Dict[int, List[AccessEvent]] = {}
    for ev in events:
        by_core.setdefault(ev.core, []).append(ev)
    for core_events in by_core.values():
        ordered = sorted(core_events, key=lambda e: (e.po, e.index))
        for a, b in zip(ordered, ordered[1:]):
            succ[a.index][b.index] = "po"

    # co: per word, stores in tag-serial order
    stores_by_word: Dict[int, List[AccessEvent]] = {}
    store_by_tag: Dict[WriteTag, AccessEvent] = {}
    for ev in events:
        if ev.kind == "store":
            stores_by_word.setdefault(ev.word, []).append(ev)
            store_by_tag[ev.tag] = ev
    co_next: Dict[WriteTag, AccessEvent] = {}
    for stores in stores_by_word.values():
        stores.sort(key=lambda e: e.tag[1])
        for a, b in zip(stores, stores[1:]):
            succ[a.index][b.index] = "co"
            co_next[a.tag] = b

    # resolve write-buffer-forwarded loads to the tag of the store
    # that supplied their value (recorded with the same core and po
    # when it merged); an unresolved tag (store squashed before
    # merging) contributes po edges only
    store_by_po = {
        (ev.core, ev.po): ev for ev in events if ev.kind == "store"
    }

    def load_tag(ev: AccessEvent):
        tag = ev.tag
        if len(tag) == 3 and tag[0] == "fwd":
            src = store_by_po.get((tag[1], tag[2]))
            return src.tag if src is not None else tag
        return tag

    # rf and fr
    for ev in events:
        if ev.kind != "load":
            continue
        tag = load_tag(ev)
        writer = store_by_tag.get(tag)
        if writer is not None and writer.core != ev.core:
            succ[writer.index][ev.index] = "rf"
        # fr: the load happens before the co-successor of what it read
        if tag == INIT_TAG:
            stores = stores_by_word.get(ev.word, ())
            if stores:
                succ[ev.index][stores[0].index] = "fr"
        else:
            nxt = co_next.get(tag)
            if nxt is not None and nxt.core != ev.core:
                succ[ev.index][nxt.index] = "fr"
    return succ


def find_scv(events: List[AccessEvent]) -> Optional[List[Tuple[int, int]]]:
    """Return a dependence cycle (list of edges) or None if SC holds.

    Iterative three-colour depth-first search: roots in event order,
    out-edges in insertion order, and the first edge into a node still
    on the search path closes the cycle that is returned.  The cycle's
    length is serialised into verify findings and synth reasons, so the
    traversal order is part of the contract (tests/unit/test_scv_graph
    pins it edge for edge against a reference graph library).
    """
    succ = build_dependence_graph(events)
    done = set()        # black: fully explored, on no cycle
    for root in succ:
        if root in done:
            continue
        path = [root]                   # grey nodes, root first
        on_path = {root}
        pending = [iter(succ[root])]    # per grey node: edges left to try
        while path:
            for nxt in pending[-1]:
                if nxt in on_path:
                    cycle = path[path.index(nxt):] + [nxt]
                    return list(zip(cycle, cycle[1:]))
                if nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    pending.append(iter(succ[nxt]))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)
    return None


def assert_sequentially_consistent(events: List[AccessEvent]) -> None:
    """Raise :class:`SCViolationError` if the execution is not SC."""
    cycle = find_scv(events)
    if cycle is not None:
        raise SCViolationError(
            f"dependence cycle of length {len(cycle)} found", cycle=cycle
        )
