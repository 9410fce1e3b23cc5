"""The ustm workload group: RSTM-style microbenchmarks on TLRW
(paper Table 3, evaluated in Figs 9/10).

Each microbenchmark is a concurrent data structure in simulated shared
memory plus a transaction mix — 50 % lookups, the rest split between
inserts and deletes (paper §6) — run for a fixed simulated time and
measured as committed transactions per cycle (throughput).

Structures are array-backed (node = a few consecutive words; index 0 is
null) with per-thread free pools pre-allocated at setup, since
allocating simulated memory mid-run would break replay determinism.
Every word is protected by a TLRW lock; the read barrier carries the
CRITICAL (wf) fence and the write/commit barriers the STANDARD (sf)
fences, exactly the paper's §4.2 recipe.
"""

from __future__ import annotations

from typing import List

from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.stm.tlrw import TlrwStm
from repro.stm.txn import run_transactions
from repro.workloads.base import Workload, register

#: simulated-cycle budget for throughput measurement (× scale)
USTM_BUDGET = 120_000


class NodeHeap:
    """An array of fixed-size nodes with per-thread free pools."""

    def __init__(self, machine: Machine, stm: TlrwStm, node_words: int,
                 capacity: int, num_threads: int):
        self.node_words = node_words
        self.capacity = capacity
        self.word_bytes = machine.alloc.amap.word_bytes
        self.base = machine.alloc.alloc_line(node_words * capacity)
        stm.register_region(self.base, node_words * capacity)
        self._next_static = 1  # index 0 is the null pointer
        self._pool_start = capacity // 2
        self._pool_each = (capacity - self._pool_start) // num_threads

    def field(self, idx: int, f: int) -> int:
        return self.base + (idx * self.node_words + f) * self.word_bytes

    def take_static(self) -> int:
        """Allocate a node at setup time (structure initialization)."""
        idx = self._next_static
        self._next_static += 1
        assert idx < self._pool_start, "static heap region exhausted"
        return idx

    def pool_for(self, tid: int) -> List[int]:
        """A *fresh* copy of thread *tid*'s free-node pool.

        Thread code must take this copy inside the thread function (so
        a W+ rollback replay, which re-creates the generator, re-derives
        the pool state deterministically) and never share it.
        """
        start = self._pool_start + tid * self._pool_each
        return list(range(start, start + self._pool_each))


class _UstmWorkload(Workload):
    """Common scaffolding: budgeted run, mix driver, invariant hook."""

    group = "ustm"
    #: transactions each thread attempts (budget usually cuts first)
    txn_count = 4000
    think = 60

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.cycle_budget = int(USTM_BUDGET * scale)

    def setup(self, machine: Machine) -> None:
        n = machine.params.num_cores
        self.stm = TlrwStm(machine.alloc, n)
        self.build(machine)

        def thread(ctx):
            # (re)initialize per-thread mutable state here so a W+
            # rollback replay re-derives it deterministically.
            self.init_thread(ctx)
            yield from run_transactions(
                ctx, self.stm, self.make_body, self.txn_count,
                think_instructions=self.think,
            )

        machine.spawn_all(thread)

    # subclasses implement:
    def build(self, machine: Machine) -> None:
        raise NotImplementedError

    def init_thread(self, ctx) -> None:
        """Default: no per-thread scratch state."""

    def make_body(self, ctx, i: int):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Counter — a single shared counter, increment transactions
# ---------------------------------------------------------------------------


@register
class Counter(_UstmWorkload):
    name = "Counter"
    think = 500

    def build(self, machine: Machine) -> None:
        self.counter = machine.alloc.word()
        self.stm.register_region(self.counter, 1)

    def make_body(self, ctx, i: int):
        counter = self.counter

        def body(txn):
            # read-for-write: a reader flag on the hottest word in the
            # system would only guarantee writer starvation
            v = yield from txn.read_for_write(counter)
            yield from txn.write(counter, v + 1)
        return body

    def check(self, machine: Machine) -> None:
        final = machine.image.peek(self.counter)
        commits = machine.stats.txn_commits
        # a budget-truncated run may leave, per core, one in-flight
        # eager (uncommitted) increment or one committed increment
        # still sitting in a write buffer
        slack = machine.params.num_cores
        assert commits - slack <= final <= commits + slack, (
            f"Counter: value {final} vs {commits} commits (lost update)"
        )


# ---------------------------------------------------------------------------
# List — sorted singly-linked list  (node = [key, value, next])
# ---------------------------------------------------------------------------


class _ListBase(_UstmWorkload):
    key_range = 96
    initial_keys = 12
    node_words = 3
    KEY, VAL, NXT = 0, 1, 2

    def build(self, machine: Machine) -> None:
        n = machine.params.num_cores
        self.heap = NodeHeap(machine, self.stm, self.node_words, 256, n)
        self.head = machine.alloc.word()
        self.stm.register_region(self.head, 1)
        # pre-populate with evenly spread keys, sorted
        prev = 0
        image = machine.image
        for k in range(0, self.key_range, self.key_range // self.initial_keys):
            idx = self.heap.take_static()
            image.poke(self.heap.field(idx, self.KEY), k)
            image.poke(self.heap.field(idx, self.VAL), k * 10)
            if prev == 0:
                image.poke(self.head, idx)
            else:
                image.poke(self.heap.field(prev, self.NXT), idx)
            self._link_static(image, prev, idx)
            prev = idx

    def _link_static(self, image, prev: int, idx: int) -> None:
        """Hook for subclasses with extra link fields (DList's prev)."""

    # --- transactional operations ------------------------------------

    def _find(self, txn, key: int):
        """Returns (prev_idx, idx) with idx the first node key >= key."""
        heap = self.heap
        prev = 0
        cur = yield from txn.read(self.head)
        while cur:
            k = yield from txn.read(heap.field(cur, self.KEY))
            if k >= key:
                break
            prev = cur
            cur = yield from txn.read(heap.field(cur, self.NXT))
        return prev, cur

    def lookup(self, txn, key: int):
        _prev, cur = yield from self._find(txn, key)
        if cur:
            k = yield from txn.read(self.heap.field(cur, self.KEY))
            if k == key:
                v = yield from txn.read(self.heap.field(cur, self.VAL))
                return v
        return None

    def insert(self, txn, key: int, pool: List[int]):
        heap = self.heap
        prev, cur = yield from self._find(txn, key)
        if cur:
            k = yield from txn.read(heap.field(cur, self.KEY))
            if k == key:
                yield from txn.write(heap.field(cur, self.VAL), key * 10)
                return False
        if not pool:
            return False
        node = pool[-1]  # consumed only on commit-bound path; see below
        yield from txn.write(heap.field(node, self.KEY), key)
        yield from txn.write(heap.field(node, self.VAL), key * 10)
        yield from txn.write(heap.field(node, self.NXT), cur)
        if prev:
            yield from txn.write(heap.field(prev, self.NXT), node)
        else:
            yield from txn.write(self.head, node)
        pool.pop()
        return True

    def delete(self, txn, key: int):
        heap = self.heap
        prev, cur = yield from self._find(txn, key)
        if not cur:
            return False
        k = yield from txn.read(heap.field(cur, self.KEY))
        if k != key:
            return False
        nxt = yield from txn.read(heap.field(cur, self.NXT))
        if prev:
            yield from txn.write(heap.field(prev, self.NXT), nxt)
        else:
            yield from txn.write(self.head, nxt)
        return True

    def init_thread(self, ctx) -> None:
        ctx.pool = self.heap.pool_for(ctx.tid)

    def make_body(self, ctx, i: int):
        roll = ctx.rng.random()
        key = ctx.rng.randrange(self.key_range)
        pool = ctx.pool

        def body(txn):
            if roll < 0.50:
                yield from self.lookup(txn, key)
            elif roll < 0.75:
                yield from self.insert(txn, key, pool)
            else:
                yield from self.delete(txn, key)
        return body


@register
class TxList(_ListBase):
    name = "List"


# ---------------------------------------------------------------------------
# DList — doubly-linked list  (node = [key, value, next, prev])
# ---------------------------------------------------------------------------


@register
class DList(_ListBase):
    name = "DList"
    node_words = 4
    PRV = 3

    def _link_static(self, image, prev: int, idx: int) -> None:
        image.poke(self.heap.field(idx, self.PRV), prev)

    def insert(self, txn, key: int, pool: List[int]):
        heap = self.heap
        prev, cur = yield from self._find(txn, key)
        if cur:
            k = yield from txn.read(heap.field(cur, self.KEY))
            if k == key:
                yield from txn.write(heap.field(cur, self.VAL), key * 10)
                return False
        if not pool:
            return False
        node = pool[-1]
        yield from txn.write(heap.field(node, self.KEY), key)
        yield from txn.write(heap.field(node, self.VAL), key * 10)
        yield from txn.write(heap.field(node, self.NXT), cur)
        yield from txn.write(heap.field(node, self.PRV), prev)
        if cur:
            yield from txn.write(heap.field(cur, self.PRV), node)
        if prev:
            yield from txn.write(heap.field(prev, self.NXT), node)
        else:
            yield from txn.write(self.head, node)
        pool.pop()
        return True

    def delete(self, txn, key: int):
        heap = self.heap
        prev, cur = yield from self._find(txn, key)
        if not cur:
            return False
        k = yield from txn.read(heap.field(cur, self.KEY))
        if k != key:
            return False
        nxt = yield from txn.read(heap.field(cur, self.NXT))
        if nxt:
            yield from txn.write(heap.field(nxt, self.PRV), prev)
        if prev:
            yield from txn.write(heap.field(prev, self.NXT), nxt)
        else:
            yield from txn.write(self.head, nxt)
        return True


# ---------------------------------------------------------------------------
# Hash — fixed buckets, short chains
# ---------------------------------------------------------------------------


@register
class Hash(_ListBase):
    name = "Hash"
    key_range = 128
    buckets = 16

    def build(self, machine: Machine) -> None:
        n = machine.params.num_cores
        self.heap = NodeHeap(machine, self.stm, self.node_words, 384, n)
        base = machine.alloc.alloc_line(self.buckets)
        self.stm.register_region(base, self.buckets)
        self.bucket_heads = machine.alloc.words_of(base, self.buckets)
        image = machine.image
        for k in range(0, self.key_range, 3):
            idx = self.heap.take_static()
            b = k % self.buckets
            image.poke(self.heap.field(idx, self.KEY), k)
            image.poke(self.heap.field(idx, self.VAL), k * 10)
            image.poke(self.heap.field(idx, self.NXT),
                       image.peek(self.bucket_heads[b]))
            image.poke(self.bucket_heads[b], idx)

    def _find_in_bucket(self, txn, key: int):
        heap = self.heap
        head = self.bucket_heads[key % self.buckets]
        prev_field = head
        cur = yield from txn.read(head)
        while cur:
            k = yield from txn.read(heap.field(cur, self.KEY))
            if k == key:
                return prev_field, cur
            prev_field = heap.field(cur, self.NXT)
            cur = yield from txn.read(prev_field)
        return prev_field, 0

    def init_thread(self, ctx) -> None:
        ctx.pool = self.heap.pool_for(ctx.tid)

    def make_body(self, ctx, i: int):
        roll = ctx.rng.random()
        key = ctx.rng.randrange(self.key_range)
        pool = ctx.pool
        heap = self.heap

        def body(txn):
            prev_field, cur = yield from self._find_in_bucket(txn, key)
            if roll < 0.50:     # lookup
                if cur:
                    yield from txn.read(heap.field(cur, self.VAL))
            elif roll < 0.75:   # insert (prepend if absent)
                if cur:
                    yield from txn.write(heap.field(cur, self.VAL), key)
                elif pool:
                    node = pool[-1]
                    head = self.bucket_heads[key % self.buckets]
                    old = yield from txn.read(head)
                    yield from txn.write(heap.field(node, self.KEY), key)
                    yield from txn.write(heap.field(node, self.VAL), key)
                    yield from txn.write(heap.field(node, self.NXT), old)
                    yield from txn.write(head, node)
                    pool.pop()
            else:               # delete
                if cur:
                    nxt = yield from txn.read(heap.field(cur, self.NXT))
                    yield from txn.write(prev_field, nxt)
        return body


# ---------------------------------------------------------------------------
# Tree — binary search tree  (node = [key, value, left, right])
# ---------------------------------------------------------------------------


class _TreeBase(_UstmWorkload):
    name = ""
    key_range = 128
    node_words = 4
    KEY, VAL, LEFT, RIGHT = 0, 1, 2, 3

    def build(self, machine: Machine) -> None:
        n = machine.params.num_cores
        self.heap = NodeHeap(machine, self.stm, self.node_words, 384, n)
        self.root = machine.alloc.word()
        self.stm.register_region(self.root, 1)
        # balanced initial tree over even keys
        keys = list(range(0, self.key_range, 4))
        machine.image.poke(
            self.root,
            self._build_subtree(machine.image, keys, 0, len(keys) - 1))

    def _build_subtree(self, image, keys, lo: int, hi: int) -> int:
        # a method, not a nested function: a closure that calls itself
        # is a reference cycle holding the workload (and its lock table)
        if lo > hi:
            return 0
        mid = (lo + hi) // 2
        idx = self.heap.take_static()
        image.poke(self.heap.field(idx, self.KEY), keys[mid])
        image.poke(self.heap.field(idx, self.VAL), keys[mid] * 10)
        image.poke(self.heap.field(idx, self.LEFT),
                   self._build_subtree(image, keys, lo, mid - 1))
        image.poke(self.heap.field(idx, self.RIGHT),
                   self._build_subtree(image, keys, mid + 1, hi))
        return idx

    def _descend(self, txn, key: int):
        """Returns (parent_link_field, idx) — idx 0 if absent."""
        heap = self.heap
        link = self.root
        cur = yield from txn.read(link)
        while cur:
            k = yield from txn.read(heap.field(cur, self.KEY))
            if k == key:
                return link, cur
            link = heap.field(cur, self.LEFT if key < k else self.RIGHT)
            cur = yield from txn.read(link)
        return link, 0

    def tree_lookup(self, txn, key: int):
        _link, cur = yield from self._descend(txn, key)
        if cur:
            v = yield from txn.read(self.heap.field(cur, self.VAL))
            return v
        return None

    def tree_insert(self, txn, key: int, pool: List[int]):
        heap = self.heap
        link, cur = yield from self._descend(txn, key)
        if cur:
            yield from txn.write(heap.field(cur, self.VAL), key * 10)
            return False
        if not pool:
            return False
        node = pool[-1]
        yield from txn.write(heap.field(node, self.KEY), key)
        yield from txn.write(heap.field(node, self.VAL), key * 10)
        yield from txn.write(heap.field(node, self.LEFT), 0)
        yield from txn.write(heap.field(node, self.RIGHT), 0)
        yield from txn.write(link, node)
        pool.pop()
        return True

    def tree_delete_leafish(self, txn, key: int):
        """Delete when the node has at most one child (else overwrite
        the value — keeps the structure code compact while preserving
        the read/write mix)."""
        heap = self.heap
        link, cur = yield from self._descend(txn, key)
        if not cur:
            return False
        left = yield from txn.read(heap.field(cur, self.LEFT))
        right = yield from txn.read(heap.field(cur, self.RIGHT))
        if left and right:
            yield from txn.write(heap.field(cur, self.VAL), 0)
            return False
        yield from txn.write(link, left or right)
        return True


@register
class Tree(_TreeBase):
    name = "Tree"

    def init_thread(self, ctx) -> None:
        ctx.pool = self.heap.pool_for(ctx.tid)

    def make_body(self, ctx, i: int):
        roll = ctx.rng.random()
        key = ctx.rng.randrange(self.key_range)
        pool = ctx.pool

        def body(txn):
            if roll < 0.50:
                yield from self.tree_lookup(txn, key)
            elif roll < 0.75:
                yield from self.tree_insert(txn, key, pool)
            else:
                yield from self.tree_delete_leafish(txn, key)
        return body


@register
class TreeOverwrite(_TreeBase):
    """Write-heavy tree: every transaction overwrites a node's value."""

    name = "TreeOverwrite"

    def make_body(self, ctx, i: int):
        key = ctx.rng.randrange(0, self.key_range, 4)  # existing keys

        def body(txn):
            link, cur = yield from self._descend(txn, key)
            if cur:
                v = yield from txn.read(self.heap.field(cur, self.VAL))
                yield from txn.write(self.heap.field(cur, self.VAL), v + 1)
        return body


# ---------------------------------------------------------------------------
# Forest — several small trees per transaction
# ---------------------------------------------------------------------------


@register
class Forest(_UstmWorkload):
    name = "Forest"
    num_trees = 4

    def build(self, machine: Machine) -> None:
        self.trees = []
        for t in range(self.num_trees):
            tree = _TreeBase(scale=self.scale)
            tree.stm = self.stm
            tree.key_range = 64
            tree.build(machine)
            self.trees.append(tree)

    def init_thread(self, ctx) -> None:
        ctx.pools = [t.heap.pool_for(ctx.tid) for t in self.trees]

    def make_body(self, ctx, i: int):
        picks = [
            (ctx.rng.randrange(self.num_trees),
             ctx.rng.randrange(64), ctx.rng.random())
            for _ in range(2)
        ]

        def body(txn):
            for which, key, roll in picks:
                tree = self.trees[which]
                if roll < 0.6:
                    yield from tree.tree_lookup(txn, key)
                else:
                    yield from tree.tree_insert(txn, key, ctx.pools[which])
        return body


# ---------------------------------------------------------------------------
# MCAS / ReadNWrite1 / ReadWriteN — flat-array access mixes
# ---------------------------------------------------------------------------


class _ArrayBase(_UstmWorkload):
    array_words = 256

    def build(self, machine: Machine) -> None:
        self.base = machine.alloc.alloc_line(self.array_words)
        self.stm.register_region(self.base, self.array_words)
        self.word_bytes = machine.alloc.amap.word_bytes

    def word(self, i: int) -> int:
        return self.base + (i % self.array_words) * self.word_bytes


@register
class MCAS(_ArrayBase):
    """Atomically swing N words (the classic multi-word CAS workload)."""

    name = "MCAS"
    n_words = 4

    def make_body(self, ctx, i: int):
        idxs = sorted(ctx.rng.sample(range(self.array_words), self.n_words))

        def body(txn):
            values = []
            for idx in idxs:
                v = yield from txn.read(self.word(idx))
                values.append(v)
            for idx, v in zip(idxs, values):
                yield from txn.write(self.word(idx), v + 1)
        return body


@register
class ReadNWrite1(_ArrayBase):
    """Read N random words, write one (read-dominated)."""

    name = "ReadNWrite1"
    n_reads = 8

    def make_body(self, ctx, i: int):
        idxs = [ctx.rng.randrange(self.array_words) for _ in range(self.n_reads)]

        def body(txn):
            acc = 0
            for idx in idxs:
                acc += yield from txn.read(self.word(idx))
            yield from txn.write(self.word(idxs[0]), acc & 0xFFFF)
        return body


@register
class ReadWriteN(_ArrayBase):
    """Read and write N random words (balanced mix)."""

    name = "ReadWriteN"
    n_ops = 4

    def make_body(self, ctx, i: int):
        idxs = sorted(ctx.rng.sample(range(self.array_words), self.n_ops))

        def body(txn):
            for idx in idxs:
                v = yield from txn.read(self.word(idx))
                yield from txn.write(self.word(idx), v + 1)
        return body
