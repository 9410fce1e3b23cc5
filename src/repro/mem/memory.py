"""The coherent global memory image.

The simulator separates *timing* (caches, directory, NoC) from *values*.
Values live in one flat word-addressed image representing the coherent
state of the memory system.  A store's value is merged into the image at
the instant its coherence transaction grants write permission — that is
the TSO "performed / globally visible" point.  Until then the value is
only visible to its own core through write-buffer forwarding.

This split is what makes sequential-consistency violations *real* in
this simulator: a post-weak-fence load genuinely reads the image before
the pre-fence stores of its own core have merged, so a broken fence
implementation produces genuinely non-SC outcomes (and the litmus tests
catch them).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

#: Identity of a write, used by the dependence recorder: (core, serial).
WriteTag = Tuple[int, int]

#: The initial value of untouched memory and its pseudo-writer tag.
INIT_TAG: WriteTag = (-1, 0)


class MemoryImage:
    """Flat word-addressed memory with last-writer metadata."""

    def __init__(self):
        self._words: Dict[int, int] = {}
        self._writers: Dict[int, WriteTag] = {}
        self._serial = 0
        #: optional hook called as (kind, core, word, value, tag) on
        #: every globally-visible access; the SCV recorder installs one.
        self.observer: Optional[Callable[[str, int, int, int, WriteTag], None]] = None

    def read(self, word_addr: int, core: int = -1) -> int:
        """Read the coherent value of *word_addr* (0 if never written)."""
        value = self._words.get(word_addr, 0)
        if self.observer is not None:
            tag = self._writers.get(word_addr, INIT_TAG)
            self.observer("load", core, word_addr, value, tag)
        return value

    def write(self, word_addr: int, value: int, core: int = -1) -> WriteTag:
        """Merge a store into the image; returns this write's tag."""
        self._serial += 1
        tag = (core, self._serial)
        self._words[word_addr] = value
        self._writers[word_addr] = tag
        if self.observer is not None:
            self.observer("store", core, word_addr, value, tag)
        return tag

    def rmw(self, word_addr: int, fn: Callable[[int], int], core: int = -1) -> Tuple[int, int]:
        """Atomic read-modify-write; returns (old, new) values.

        Atomicity holds because the directory serializes ownership of a
        line and the image update happens inside one simulation event.
        """
        old = self.read(word_addr, core)
        new = fn(old)
        self.write(word_addr, new, core)
        return old, new

    @property
    def writes(self) -> int:
        """Stores merged so far (pokes not counted)."""
        return self._serial

    def peek(self, word_addr: int) -> int:
        """Read without notifying the observer (for debugging/tests)."""
        return self._words.get(word_addr, 0)

    def poke(self, word_addr: int, value: int) -> None:
        """Write without coherence (for initialization in tests)."""
        self._words[word_addr] = value

    def __len__(self) -> int:
        return len(self._words)
