"""Set-associative tag store with LRU replacement.

Only tags and MESI states are stored — data values live in the global
:class:`~repro.mem.memory.MemoryImage` (see that module's docstring for
why).  Used for the private L1s; the shared L2 is modeled as
latency-only backing behind the directory banks, which is where the
paper's fence mechanisms live.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError


class LineState(enum.Enum):
    """MESI stable states (I is represented by absence from the set)."""

    M = "M"
    E = "E"
    S = "S"

    def __init__(self, letter: str):
        #: a store may hit without a coherence transaction (M or E) —
        #: a plain member attribute: the store drain reads it per store
        self.writable = letter != "S"


_M = LineState.M

#: every never-filled set: shared, and never written to
_EMPTY: "OrderedDict[int, LineState]" = OrderedDict()


class SetAssocCache:
    """An LRU set-associative cache of line states.

    ``sets[i]`` is an OrderedDict mapping line address -> LineState with
    LRU order (oldest first).  A set is built when first filled — a
    litmus-scale machine touches a handful per L1 — and until then its
    slot holds the shared ``_EMPTY``: reads need no special case, and
    the two writers (:meth:`insert`, :meth:`set_state`) give the slot
    its own OrderedDict first.
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int):
        if size_bytes % (ways * line_bytes):
            raise ConfigError("cache size must divide into ways*line_bytes")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        self.sets: List["OrderedDict[int, LineState]"] = \
            [_EMPTY] * self.num_sets
        # when geometry is power-of-two (the usual case), index with a
        # shift+mask instead of a big-int divide+modulo
        if (line_bytes & (line_bytes - 1)) == 0 and \
                (self.num_sets & (self.num_sets - 1)) == 0:
            self._line_shift: Optional[int] = line_bytes.bit_length() - 1
            self._set_mask = self.num_sets - 1
        else:
            self._line_shift = None
            self._set_mask = 0

    def _set_of(self, line: int) -> "OrderedDict[int, LineState]":
        if self._line_shift is not None:
            return self.sets[(line >> self._line_shift) & self._set_mask]
        return self.sets[(line // self.line_bytes) % self.num_sets]

    def lookup(self, line: int, touch: bool = True) -> Optional[LineState]:
        """State of *line* if present (updates LRU unless touch=False)."""
        # _set_of inlined: lookup() runs once per load in the core's
        # fast path, so the extra call is measurable.
        shift = self._line_shift
        if shift is not None:
            s = self.sets[(line >> shift) & self._set_mask]
        else:
            s = self.sets[(line // self.line_bytes) % self.num_sets]
        state = s.get(line)
        if state is not None and touch:
            s.move_to_end(line)
        return state

    def write_hit(self, line: int) -> bool:
        """A store's L1 access: ``lookup(line)``, and if the state is
        writable, ``set_state(line, M)`` — in one call with one LRU
        touch (a present line is touched whether writable or not, as
        ``lookup`` does).  Returns True iff the store hit."""
        shift = self._line_shift
        if shift is not None:
            s = self.sets[(line >> shift) & self._set_mask]
        else:
            s = self.sets[(line // self.line_bytes) % self.num_sets]
        state = s.get(line)
        if state is None:
            return False
        s.move_to_end(line)
        if not state.writable:
            return False
        s[line] = _M
        return True

    def set_state(self, line: int, state: LineState) -> None:
        """Set/insert *line* with *state* (no eviction — use insert())."""
        shift = self._line_shift
        if shift is not None:
            i = (line >> shift) & self._set_mask
        else:
            i = (line // self.line_bytes) % self.num_sets
        s = self.sets[i]
        if s is _EMPTY:
            s = self.sets[i] = OrderedDict()
        s[line] = state
        s.move_to_end(line)

    def invalidate(self, line: int) -> Optional[LineState]:
        """Remove *line*; returns its previous state (None if absent)."""
        shift = self._line_shift
        if shift is not None:
            s = self.sets[(line >> shift) & self._set_mask]
        else:
            s = self.sets[(line // self.line_bytes) % self.num_sets]
        return s.pop(line, None)

    def victim(self, line: int) -> Optional[Tuple[int, LineState]]:
        """The (line, state) that inserting *line* would evict, or None."""
        s = self._set_of(line)
        if line in s or len(s) < self.ways:
            return None
        victim_line = next(iter(s))
        return victim_line, s[victim_line]

    def insert(self, line: int, state: LineState) -> Optional[Tuple[int, LineState]]:
        """Insert *line*, evicting LRU if the set is full.

        Returns the evicted (line, state) or None.  The caller is
        responsible for issuing the writeback of a dirty victim.
        """
        shift = self._line_shift
        if shift is not None:
            i = (line >> shift) & self._set_mask
        else:
            i = (line // self.line_bytes) % self.num_sets
        s = self.sets[i]
        if s is _EMPTY:
            s = self.sets[i] = OrderedDict()
        evicted = None
        if line not in s and len(s) >= self.ways:
            victim_line, victim_state = s.popitem(last=False)
            evicted = (victim_line, victim_state)
        s[line] = state
        s.move_to_end(line)
        return evicted

    def snapshot(self) -> tuple:
        """The filled sets, as ``(index, ((line, state), ...))`` in LRU
        order, for :meth:`restore`."""
        return tuple((i, tuple(s.items()))
                     for i, s in enumerate(self.sets) if s)

    def restore(self, snapshot: tuple) -> None:
        """Refill an empty cache from :meth:`snapshot`."""
        sets = self.sets
        for i, items in snapshot:
            sets[i] = OrderedDict(items)

    def occupancy(self) -> int:
        return sum(len(s) for s in self.sets if s)

    def lines(self):
        """Iterate over all (line, state) pairs (for tests/invariants)."""
        for s in self.sets:
            if s:  # most slots of a litmus-scale L1 are never filled
                yield from s.items()
