"""TLRW read/write locks (paper §4.2, Fig. 5b; Dice & Shavit's TLRW as
shipped in RSTM).

One lock object per shared-memory location: an array of per-thread
reader flags plus a writer field.  The fence groups under study:

* **read barrier** (frequent, CRITICAL → wf in WS+/SW+):
  ``readers[tid] = 1; FENCE; w = writer`` — the flag store must be
  visible before the writer check, or a concurrent writer and reader
  can both miss each other (an SCV whose symptom is a dirty read).
* **write barrier** (rare, STANDARD → sf):
  acquire ``writer`` (CAS, as RSTM does — Fig. 5b's plain store is the
  paper's exposition of the ordering requirement, not of writer-writer
  arbitration), ``FENCE``, then read all reader flags.
* **writer commit** (STANDARD): the in-place data stores must drain
  before the writer field is released — this fence sits on top of a
  write buffer full of data-store misses and is the expensive sf that
  W+ (which weakens *every* fence) eliminates but WS+ (sf on the
  writer side) keeps, reproducing the W+ > WS+ gap on write-heavy
  workloads (paper Fig. 10/11).

Locks are allocated up front for every word of a data region.  With
probability ``colocate_prob`` a lock object is placed in the same NUMA
interleave block as its data, which controls how often WeeFence can
confine its PS/BS to one directory module (Table 4 Wee columns).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.common.params import FenceRole
from repro.core import isa as ops


class TxnAbort(Exception):
    """Raised inside a transaction body to trigger abort-and-retry."""


#: interned barrier ops — immutable value types yielded millions of
#: times from the barrier inner loops; reusing one instance per shape
#: removes the dominant allocation cost of the STM op stream.
_FENCE_READ = ops.Fence(FenceRole.CRITICAL)
_FENCE_WRITE = ops.Fence(FenceRole.STANDARD)
_WRITER_SPIN = ops.Compute(60)


class LockObject:
    """Reader-flag array + writer field for one shared word.

    A run touches a fraction of the locks a region registers, so a lock
    is four scalars: thread *t*'s reader flag lives at ``base + t *
    flag_stride``.  ``rd_ops``/``wr_ops`` (per-thread interned op
    objects for the read/write barriers) stay None until the first
    barrier on this lock.
    """

    __slots__ = ("base", "flag_stride", "num_threads", "writer_addr",
                 "rd_ops", "wr_ops")

    def __init__(self, base: int, flag_stride: int, num_threads: int,
                 writer_addr: int):
        self.base = base
        self.flag_stride = flag_stride
        self.num_threads = num_threads
        self.writer_addr = writer_addr
        self.rd_ops = None
        self.wr_ops = None

    def flag_addr(self, tid: int) -> int:
        """Address of thread *tid*'s reader flag."""
        return self.base + tid * self.flag_stride

    @property
    def reader_flags(self) -> List[int]:
        """Every thread's reader-flag address, by thread id."""
        return [self.flag_addr(t) for t in range(self.num_threads)]


class TlrwStm:
    """Lock-table holder; per-thread transactions are built on top."""

    #: writer spins this many rounds for readers to drain before aborting
    WRITER_PATIENCE = 3
    #: reader retries the whole flag/fence/check barrier this many times
    #: (clearing its flag in between, so it never blocks the writer it
    #: is waiting for) before aborting the transaction
    READER_PATIENCE = 4

    def __init__(self, alloc, num_threads: int, colocate_prob: float = 0.35,
                 seed: int = 7):
        self.alloc = alloc
        self.num_threads = num_threads
        self.colocate_prob = colocate_prob
        self._rng = random.Random(seed)
        self.locks: Dict[int, LockObject] = {}
        # One reader flag per cache line whenever the lock object still
        # fits one NUMA interleave block.  Packing flags (a dense
        # ByteLock) makes every reader's flag store a false-sharing
        # coherence miss: the flag stores then drain slowly, the read
        # barrier's weak fence stays incomplete, the Bypass Set bloats
        # past its 32 entries and every writer store bounces — an abort
        # storm the paper's Table 4 (BS of 3-5 lines, ~0.05 bounces/wf)
        # shows real TLRW does not exhibit.  Padded flags keep a
        # thread's flag line in M state between barriers, so the fence's
        # pending store is usually an L1 hit.
        block_lines = alloc.amap.interleave_bytes // alloc.amap.line_bytes
        self.FLAGS_PER_LINE = max(1, -(-num_threads // max(1, block_lines - 1)))

    def _lock_words(self) -> int:
        """Words per lock object: flag lines + a writer line."""
        wpl = self.alloc.amap.words_per_line
        flag_lines = -(-self.num_threads // self.FLAGS_PER_LINE)
        return (flag_lines + 1) * wpl

    def register_region(self, base: int, nwords: int) -> None:
        """Create lock objects for every word of a data region.

        Must be called at setup time (before the run): allocation during
        simulated execution would break thread replay determinism.
        """
        amap = self.alloc.amap
        wb = amap.word_bytes
        wpl = amap.words_per_line
        total = self._lock_words()
        flag_stride = (wpl // self.FLAGS_PER_LINE) * wb
        writer_offset = (total - wpl) * wb
        for i in range(nwords):
            word = base + i * wb
            if word in self.locks:
                continue
            if self._rng.random() < self.colocate_prob:
                lock_base = self.alloc.alloc_same_bank(word, total)
            else:
                lock_base = self.alloc.alloc_line(total)
            self.locks[word] = LockObject(
                lock_base, flag_stride, self.num_threads,
                lock_base + writer_offset)

    def lock_for(self, word: int) -> LockObject:
        return self.locks[word]

    # ------------------------------------------------------------------
    # barrier subroutines (used by Txn via `yield from`)
    # ------------------------------------------------------------------

    def read_acquire(self, word: int, tid: int):
        """Paper Fig. 5b read(): flag store, fence, writer check.

        On a writer conflict the reader clears its flag (never blocking
        the writer it waits for), backs off, and retries the barrier a
        few times before raising TxnAbort.
        """
        lock = self.locks[word]
        rd_ops = lock.rd_ops
        if rd_ops is None:
            rd_ops = lock.rd_ops = [None] * self.num_threads
        cached = rd_ops[tid]
        if cached is None:
            flag = lock.flag_addr(tid)
            cached = rd_ops[tid] = (
                ops.Store(flag, 1),
                ops.Load(lock.writer_addr),
                ops.Store(flag, 0),
                tuple(ops.Compute(40 * (a + 1))
                      for a in range(self.READER_PATIENCE)),
            )
        set_flag, load_writer, clr_flag, backoffs = cached
        for attempt in range(self.READER_PATIENCE):
            yield set_flag
            yield _FENCE_READ
            writer = yield load_writer
            if writer in (0, tid + 1):
                return
            yield clr_flag
            yield backoffs[attempt]
        raise TxnAbort(f"writer {writer} holds {word:#x}")

    def read_release(self, word: int, tid: int):
        # release implies acquire: the thread's ops are cached
        yield self.locks[word].rd_ops[tid][2]

    def write_acquire(self, word: int, tid: int):
        """Paper Fig. 5b write(): writer acquire, fence, reader check."""
        lock = self.locks[word]
        wr_ops = lock.wr_ops
        if wr_ops is None:
            wr_ops = lock.wr_ops = [None] * self.num_threads
        cached = wr_ops[tid]
        if cached is None:
            cached = wr_ops[tid] = (
                ops.AtomicRMW(lock.writer_addr, "cas", (0, tid + 1)),
                tuple(ops.Load(lock.flag_addr(other))
                      for other in range(self.num_threads) if other != tid),
                ops.Store(lock.writer_addr, 0),
            )
        cas_writer, load_flags, clear_writer = cached
        old = yield cas_writer
        if old not in (0, tid + 1):
            raise TxnAbort(f"writer {old} holds {word:#x}")
        yield _FENCE_WRITE
        for _ in range(self.WRITER_PATIENCE):
            busy = False
            for load_flag in load_flags:
                flag = yield load_flag
                if flag:
                    busy = True
                    break
            if not busy:
                return
            yield _WRITER_SPIN
        yield clear_writer
        raise TxnAbort(f"readers pinned {word:#x}")

    def write_release(self, word: int, tid: int):
        # release implies acquire: the thread's ops are cached
        yield self.locks[word].wr_ops[tid][2]
