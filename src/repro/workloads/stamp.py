"""The STAMP workload group (paper Table 3, evaluated in Fig. 11).

Synthetic-but-shape-faithful versions of the six STAMP applications the
paper runs from the RSTM distribution, built on the same TLRW STM as
the ustm group.  Each app reproduces the *transactional profile* that
drives its Fig. 11 behaviour:

* **genome**   — segment dedup: hash inserts + list scans, moderate
  compute; moderate fence exposure.
* **intruder** — packet reassembly: queue pops + tree inserts, very
  write-heavy with little think time → W+ (which weakens the writer
  and commit fences too) clearly beats WS+ (paper's observation).
* **kmeans**   — tiny centroid-update transactions separated by long
  compute phases; modest overall fence stall.
* **labyrinth**— very few, very long path-reservation transactions and
  huge private compute: no design moves the needle (paper: "very few
  transactions in the first place").
* **ssca2**    — tiny graph-update transactions on a large array, low
  conflict, high frequency.
* **vacation** — travel reservations: several tree lookups plus a
  couple of writes per transaction, read-dominated.

Runs go to completion (fixed transaction count per thread) and are
measured as execution time, like the paper.
"""

from __future__ import annotations

from typing import List

from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.stm.tlrw import TlrwStm
from repro.stm.txn import run_transactions
from repro.workloads.base import Workload, register
from repro.workloads.ustm import NodeHeap, _ListBase, _TreeBase


class _StampWorkload(Workload):
    """Common scaffolding: fixed per-thread transaction count."""

    group = "stamp"
    txns_per_thread = 40
    think = 300

    def setup(self, machine: Machine) -> None:
        n = machine.params.num_cores
        self.stm = TlrwStm(machine.alloc, n)
        self.build(machine)
        count = max(2, int(self.txns_per_thread * self.scale))

        def thread(ctx):
            self.init_thread(ctx)
            yield from run_transactions(
                ctx, self.stm, self.make_body, count,
                think_instructions=self.think,
            )

        machine.spawn_all(thread)

    def build(self, machine: Machine) -> None:
        raise NotImplementedError

    def init_thread(self, ctx) -> None:
        """Default: no per-thread scratch state."""

    def make_body(self, ctx, i: int):
        raise NotImplementedError


class _Structs:
    """Bundle of shared structures reused across the STAMP apps."""

    def __init__(self, owner, machine: Machine, *,
                 tree_keys=128, list_keys=48, array_words=512):
        stm = owner.stm
        self.tree = _TreeBase(scale=owner.scale)
        self.tree.stm = stm
        self.tree.key_range = tree_keys
        self.tree.build(machine)
        self.list = _ListBase(scale=owner.scale)
        self.list.stm = stm
        self.list.key_range = list_keys
        self.list.build(machine)
        self.array_words = array_words
        self.array = machine.alloc.alloc_line(array_words)
        stm.register_region(self.array, array_words)
        self.word_bytes = machine.alloc.amap.word_bytes

    def array_word(self, i: int) -> int:
        return self.array + (i % self.array_words) * self.word_bytes


@register
class Genome(_StampWorkload):
    name = "genome"
    txns_per_thread = 36
    think = 1100

    def build(self, machine: Machine) -> None:
        self.s = _Structs(self, machine, tree_keys=192, list_keys=64)

    def init_thread(self, ctx) -> None:
        ctx.tree_pool = self.s.tree.heap.pool_for(ctx.tid)

    def make_body(self, ctx, i: int):
        s = self.s
        seg = ctx.rng.randrange(192)
        scan_key = ctx.rng.randrange(64)
        pool = ctx.tree_pool

        def body(txn):
            # dedup insert of a segment, then a scan of the contig list
            yield from s.tree.tree_insert(txn, seg, pool)
            yield from s.list.lookup(txn, scan_key)
        return body


@register
class Intruder(_StampWorkload):
    name = "intruder"
    txns_per_thread = 44
    think = 400  # modest private compute: transactions nearly back to back
    #: striped packet queues — a single shared cursor would serialize
    #: every transaction behind one write lock
    CURSORS = 4

    def build(self, machine: Machine) -> None:
        self.s = _Structs(self, machine, tree_keys=128, array_words=256)
        # striped packet-queue cursors
        self.cursors = machine.alloc.alloc_words_padded(self.CURSORS)
        for c in self.cursors:
            self.stm.register_region(c, 1)

    def init_thread(self, ctx) -> None:
        ctx.tree_pool = self.s.tree.heap.pool_for(ctx.tid)

    def make_body(self, ctx, i: int):
        s = self.s
        key = ctx.rng.randrange(128)
        cursor = self.cursors[ctx.rng.randrange(self.CURSORS)]
        pool = ctx.tree_pool

        def body(txn):
            # pop a packet (read-modify-write on a queue cursor)
            c = yield from txn.read_for_write(cursor)
            yield from txn.write(cursor, c + 1)
            # reassembly-tree insert (write-heavy) + flow-state updates
            yield from s.tree.tree_insert(txn, (key + c) % 128, pool)
            for k in range(3):
                idx = (c * 7 + k) % s.array_words
                v = yield from txn.read(s.array_word(idx))
                yield from txn.write(s.array_word(idx), v + 1)
        return body


@register
class Kmeans(_StampWorkload):
    name = "kmeans"
    txns_per_thread = 40
    think = 2400  # the distance computation dominates

    CLUSTERS = 12

    def build(self, machine: Machine) -> None:
        self.centroids = machine.alloc.alloc_line(self.CLUSTERS)
        self.stm.register_region(self.centroids, self.CLUSTERS)
        self.word_bytes = machine.alloc.amap.word_bytes

    def make_body(self, ctx, i: int):
        c = ctx.rng.randrange(self.CLUSTERS)
        delta = ctx.rng.randrange(1, 5)
        addr = self.centroids + c * self.word_bytes

        def body(txn):
            v = yield from txn.read(addr)
            yield from txn.write(addr, v + delta)
        return body


@register
class Labyrinth(_StampWorkload):
    name = "labyrinth"
    txns_per_thread = 4   # very few transactions...
    think = 36000         # ...and huge private routing compute

    GRID = 256

    def build(self, machine: Machine) -> None:
        self.grid = machine.alloc.alloc_line(self.GRID)
        self.stm.register_region(self.grid, self.GRID)
        self.word_bytes = machine.alloc.amap.word_bytes

    def make_body(self, ctx, i: int):
        start = ctx.rng.randrange(self.GRID)
        path = [(start + k * 3) % self.GRID for k in range(14)]

        def body(txn):
            # reserve a whole path: read every cell, then claim it
            for cell in path:
                addr = self.grid + cell * self.word_bytes
                v = yield from txn.read(addr)
                if v:
                    continue  # already taken: route through anyway
                yield from txn.write(addr, ctx.tid + 1)
        return body


@register
class Ssca2(_StampWorkload):
    name = "ssca2"
    txns_per_thread = 56
    think = 520

    WORDS = 2048

    def build(self, machine: Machine) -> None:
        self.adj = machine.alloc.alloc_line(self.WORDS)
        self.stm.register_region(self.adj, self.WORDS)
        self.word_bytes = machine.alloc.amap.word_bytes

    def make_body(self, ctx, i: int):
        # one tiny adjacency append: low conflict on a big array
        idx = ctx.rng.randrange(self.WORDS)

        def body(txn):
            addr = self.adj + idx * self.word_bytes
            v = yield from txn.read(addr)
            yield from txn.write(addr, v + 1)
        return body


@register
class Vacation(_StampWorkload):
    name = "vacation"
    txns_per_thread = 40
    think = 1100

    def build(self, machine: Machine) -> None:
        self.s = _Structs(self, machine, tree_keys=160)

    def init_thread(self, ctx) -> None:
        ctx.tree_pool = self.s.tree.heap.pool_for(ctx.tid)

    def make_body(self, ctx, i: int):
        s = self.s
        queries = [ctx.rng.randrange(160) for _ in range(3)]
        book = ctx.rng.randrange(s.array_words)

        def body(txn):
            # price queries over the reservation trees (read-dominated)
            for q in queries:
                yield from s.tree.tree_lookup(txn, q)
            # then make the booking
            v = yield from txn.read(s.array_word(book))
            yield from txn.write(s.array_word(book), v + 1)
        return body
