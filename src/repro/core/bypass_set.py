"""The Bypass Set (BS).

Per WeeFence (paper §2.2) and §3.2: when a post-weak-fence access
completes before the fence does, its address enters the core's BS.  The
cache controller checks every incoming coherence request against the BS
**before** the cache (so monitoring survives evictions, §5.1) and, on a
line-granularity match, rejects (bounces) invalidating requests.

* WS+/W+/Wee keep line addresses only.
* SW+ additionally keeps the accessed word mask so Conditional Order
  can distinguish true from false sharing (§3.3.2).

Entries are tagged with the id of the youngest incomplete fence at
insertion time; completing fence *f* clears every entry tagged <= f
(fences complete in order under TSO's FIFO write-buffer drain).

Membership is the exact entry map.  The hashed front-end filter of
§3.2 only saves comparison energy, which this simulator does not model,
and it can give no false negative, so it would change no answer.
"""

from __future__ import annotations

from typing import Dict


class BSEntry:
    __slots__ = ("line", "word_mask", "fence_id")

    def __init__(self, line: int, word_mask: int, fence_id: int):
        self.line = line
        self.word_mask = word_mask
        self.fence_id = fence_id


class BypassSet:
    """One core's Bypass Set."""

    def __init__(self, capacity: int, fine_grain: bool = False):
        self.capacity = capacity
        #: keep per-word masks (SW+)
        self.fine_grain = fine_grain
        self._entries: Dict[int, BSEntry] = {}
        #: True if this BS has bounced an external request since the
        #: last clear (one of the two W+ deadlock-suspicion conditions).
        self.bounced_since_clear = False

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def add(self, line: int, word_mask: int, fence_id: int) -> None:
        """Record a completed post-fence access.

        The caller must check ``full`` first (and stall on overflow, as
        the core does) unless *line* is already tracked.
        """
        entry = self._entries.get(line)
        if entry is None:
            self._entries[line] = BSEntry(line, word_mask, fence_id)
        else:
            entry.word_mask |= word_mask
            # keep the entry alive until the *youngest* covering fence
            entry.fence_id = max(entry.fence_id, fence_id)

    def match_line(self, line: int) -> bool:
        """Line-granularity check applied to incoming coherence requests."""
        return line in self._entries

    def true_sharing(self, line: int, word_mask: int) -> bool:
        """Would this request's words overlap the BS's accessed words?

        Only meaningful in fine-grain (SW+) mode; coarse-grain BSs treat
        every line match as potentially true sharing.
        """
        entry = self._entries.get(line)
        if entry is None:
            return False
        if not self.fine_grain:
            return True
        return bool(entry.word_mask & word_mask)

    def note_bounce(self) -> None:
        self.bounced_since_clear = True

    def clear_upto(self, fence_id: int) -> int:
        """Drop entries belonging to fences <= *fence_id*; returns count."""
        doomed = [l for l, e in self._entries.items() if e.fence_id <= fence_id]
        for line in doomed:
            del self._entries[line]
        if not self._entries:
            self.bounced_since_clear = False
        return len(doomed)

    def clear_all(self) -> int:
        """Drop everything (W+ recovery).  Returns entries dropped."""
        n = len(self._entries)
        self._entries.clear()
        self.bounced_since_clear = False
        return n

    def lines(self):
        return self._entries.keys()
