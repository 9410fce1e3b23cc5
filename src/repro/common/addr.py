"""Address arithmetic: words, lines, offsets and home-bank mapping.

All simulated addresses are **byte** addresses.  Workload code usually
manipulates word-aligned addresses obtained from the allocator
(:mod:`repro.runtime.alloc`).  Coherence operates on line addresses;
fine-grain (SW+) BS state operates on word offsets within a line.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class AddressMap:
    """Geometry-aware address helpers for one machine configuration."""

    line_bytes: int
    word_bytes: int
    num_banks: int
    #: bank-interleaving block size (>= line size); addresses within one
    #: block share a home bank.
    interleave_bytes: int = 0

    def __post_init__(self):
        if self.line_bytes <= 0 or self.word_bytes <= 0:
            raise ConfigError("line/word size must be positive")
        if self.line_bytes % self.word_bytes:
            raise ConfigError("line size must be a multiple of word size")
        if not self.interleave_bytes:
            object.__setattr__(self, "interleave_bytes", self.line_bytes)
        if self.interleave_bytes % self.line_bytes:
            raise ConfigError("interleave size must be a multiple of line size")

    # --- granularity conversions -------------------------------------

    def line_of(self, addr: int) -> int:
        """Line address (line-aligned byte address) containing *addr*."""
        return addr - (addr % self.line_bytes)

    def word_of(self, addr: int) -> int:
        """Word address (word-aligned byte address) containing *addr*."""
        return addr - (addr % self.word_bytes)

    def word_index(self, addr: int) -> int:
        """Index of *addr*'s word within its line (0-based)."""
        return (addr % self.line_bytes) // self.word_bytes

    def word_mask(self, addr: int) -> int:
        """Single-bit mask for *addr*'s word within its line.

        These masks travel in Conditional Order requests (SW+): one bit
        per word in the line (paper §3.3.2).
        """
        return 1 << self.word_index(addr)

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes

    # --- NUMA home mapping --------------------------------------------

    def home_bank(self, addr: int) -> int:
        """Directory/L2 bank owning *addr* (block-interleaved)."""
        return (addr // self.interleave_bytes) % self.num_banks

    def same_line(self, a: int, b: int) -> bool:
        return self.line_of(a) == self.line_of(b)
