"""TSO write buffer (store buffer).

Under TSO (paper §2.1) retired stores sit in a FIFO write buffer and
merge with the memory system **one at a time**, in order.  Loads of the
same core forward from the newest matching entry.  A store entry whose
coherence transaction keeps being bounced by a remote Bypass Set stays
at the head and retries (paper Fig. 3); the Order / Conditional-Order
promotions flip its ``ordered`` flag.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

_store_ids = itertools.count(1)


class StoreEntry:
    """One retired store waiting to merge with the memory system.

    A ``__slots__`` class — one is allocated per simulated store, so it
    sits on the hot path.
    """

    __slots__ = ("word", "value", "line", "issued", "bouncing", "retries",
                 "ordered", "word_mask", "po", "store_id")

    def __init__(self, word: int, value: int, line: int):
        self.word = word
        self.value = value
        self.line = line
        #: set by the drain engine while a coherence transaction is in flight
        self.issued = False
        #: currently in bounced-retry state (hit a remote BS)
        self.bouncing = False
        #: number of retries so far for this store
        self.retries = 0
        #: O bit — promote the next retry to an Order request (WS+)
        self.ordered = False
        #: word bitmask for Conditional Order requests (SW+); 0 = plain
        self.word_mask = 0
        #: program-order index of the store in its thread (SCV recorder)
        self.po = 0
        self.store_id = next(_store_ids)


class WriteBuffer:
    """FIFO store buffer with forwarding and head-drain bookkeeping."""

    def __init__(self, capacity: int, core_id: int = 0):
        self.capacity = capacity
        #: the owning core (what the probes below report under)
        self.core_id = core_id
        self._entries: List[StoreEntry] = []
        #: observability listener (set by the Machine's attach_*):
        #: occupancy samples on push/pop, zero-cost when None
        self.tracer = None
        #: protocol-sanitizer hook (set by Machine.attach_sanitizer):
        #: FIFO/overflow check on push, zero-cost when None
        self.sanitizer = None

    # --- occupancy -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    # --- enqueue / dequeue ----------------------------------------------

    def push(self, word: int, value: int, line: int) -> StoreEntry:
        """Append a retired store.  The caller must check ``full`` first
        and stall the core on overflow — push never checks."""
        entry = StoreEntry(word, value, line)
        self._entries.append(entry)
        if self.tracer is not None:
            self.tracer.wb_depth(self.core_id, len(self._entries))
        if self.sanitizer is not None:
            self.sanitizer.on_wb_push(self)
        return entry

    def head(self) -> Optional[StoreEntry]:
        return self._entries[0] if self._entries else None

    def pop_head(self) -> StoreEntry:
        """Remove the completed head store."""
        entry = self._entries.pop(0)
        if self.tracer is not None:
            self.tracer.wb_depth(self.core_id, len(self._entries))
        return entry

    # --- TSO forwarding ---------------------------------------------------

    def forward(self, word: int) -> Optional[int]:
        """Value of the newest buffered store to *word*, if any."""
        entry = self.forward_entry(word)
        return entry.value if entry is not None else None

    def forward_entry(self, word: int) -> Optional[StoreEntry]:
        """Newest buffered entry to *word* (the forwarding source), if
        any — callers that record dependences need the entry's po."""
        if not self._entries:
            return None
        for entry in reversed(self._entries):
            if entry.word == word:
                return entry
        return None

    def has_word(self, word: int) -> bool:
        return any(e.word == word for e in self._entries)

    # --- fence support ------------------------------------------------------

    def newest_store_id(self) -> int:
        """Id of the youngest buffered store (0 if empty).

        A fence's pre-fence stores are exactly the entries present when
        the fence retires; the fence completes when the entry with this
        id (and hence, FIFO order, all older ones) has merged.
        """
        return self._entries[-1].store_id if self._entries else 0

    def contains_id(self, store_id: int) -> bool:
        return any(e.store_id == store_id for e in self._entries)

    def entries_upto(self, store_id: int) -> List[StoreEntry]:
        """All buffered entries with id <= *store_id* (the pre-fence set)."""
        return [e for e in self._entries if e.store_id <= store_id]

    def mark_ordered_upto(self, store_id: int, word_mask_fn=None) -> int:
        """Set the O bit on bouncing pre-fence entries (paper §3.3.1).

        With *word_mask_fn*, also fill the CO word mask (paper §3.3.2).
        Returns the number of entries promoted.
        """
        promoted = 0
        for entry in self._entries:
            if entry.store_id > store_id:
                break
            if entry.bouncing and not entry.ordered:
                entry.ordered = True
                if word_mask_fn is not None:
                    entry.word_mask = word_mask_fn(entry.word)
                promoted += 1
        return promoted

    def drop_after(self, store_id: int) -> int:
        """Discard entries younger than *store_id* (W+ rollback).

        Only the head entry ever has a coherence transaction in flight,
        and the head is pre-fence whenever a fence is incomplete, so the
        dropped (post-fence) entries have never merged — discarding them
        is exactly the squash of unperformed post-checkpoint stores.
        Returns the number of entries dropped.
        """
        keep = [e for e in self._entries if e.store_id <= store_id]
        dropped = len(self._entries) - len(keep)
        if dropped:
            assert not any(e.issued for e in self._entries[len(keep):]), \
                "cannot squash an issued store"
            self._entries = keep
        return dropped

    def any_bouncing(self) -> bool:
        return any(e.bouncing for e in self._entries)

    def clear(self) -> List[StoreEntry]:
        """Drop all entries (only valid in tests/recovery paths that
        know the entries have not merged)."""
        entries, self._entries = self._entries, []
        return entries

    def snapshot(self) -> List[StoreEntry]:
        return list(self._entries)
