"""The TLRW STM: isolation, atomicity, undo, fence placement."""

import random

import pytest

from repro.common.params import FenceDesign, MachineParams
from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.stm.tlrw import TlrwStm, TxnAbort
from repro.stm.txn import Txn, run_transactions


def make_stm(design=FenceDesign.S_PLUS, cores=4, seed=21):
    params = MachineParams(num_cores=cores, num_banks=cores)\
        .with_design(design)
    m = Machine(params, seed=seed)
    stm = TlrwStm(m.alloc, cores)
    return m, stm


@pytest.mark.parametrize("design", list(FenceDesign))
def test_counter_increments_are_atomic(design):
    m, stm = make_stm(design)
    counter = m.alloc.word()
    stm.register_region(counter, 1)
    N = 12

    def make_body(ctx, i):
        def body(txn):
            v = yield from txn.read(counter)
            yield from txn.write(counter, v + 1)
        return body

    def thread(ctx):
        yield from run_transactions(ctx, stm, make_body, N,
                                    think_instructions=50)

    m.spawn_all(thread)
    m.run(max_cycles=5_000_000)
    assert m.image.peek(counter) == m.stats.txn_commits
    assert m.stats.txn_commits == 4 * N


def test_multiword_invariant_preserved():
    """Transfers between two cells: the sum is invariant under
    serializable execution."""
    m, stm = make_stm(FenceDesign.W_PLUS)
    a, b = m.alloc.word(), m.alloc.word()
    m.image.poke(a, 1000)
    stm.register_region(a, 1)
    stm.register_region(b, 1)
    sums = []

    def make_body(ctx, i):
        amount = ctx.rng.randrange(1, 10)

        def body(txn):
            va = yield from txn.read_for_write(a)
            vb = yield from txn.read_for_write(b)
            yield from txn.write(a, va - amount)
            yield from txn.write(b, vb + amount)
        return body

    def thread(ctx):
        yield from run_transactions(ctx, stm, make_body, 10,
                                    think_instructions=60)

    m.spawn_all(thread)
    m.run(max_cycles=5_000_000)
    assert m.image.peek(a) + m.image.peek(b) == 1000


def test_abort_restores_undo_log():
    m, stm = make_stm(cores=1)
    x = m.alloc.word()
    m.image.poke(x, 55)
    stm.register_region(x, 1)

    def thread(ctx):
        txn = Txn(stm, ctx.tid)
        yield from txn.write(x, 99)
        yield from txn.abort()

    m.spawn(thread)
    m.run()
    assert m.image.peek(x) == 55  # undone


def test_reader_aborts_when_writer_holds():
    m, stm = make_stm(cores=2)
    x = m.alloc.word()
    stm.register_region(x, 1)
    outcome = []

    def writer(ctx):
        txn = Txn(stm, 0)
        yield from txn.write(x, 1)
        yield ops.Compute(20_000)  # hold the write lock a long time
        yield from txn.commit()

    def reader(ctx):
        yield ops.Compute(2_000)
        txn = Txn(stm, 1)
        try:
            yield from txn.read(x)
            outcome.append("read")
        except TxnAbort:
            yield from txn.abort()
            outcome.append("abort")

    m.spawn(writer)
    m.spawn(reader)
    m.run()
    assert outcome == ["abort"]


def test_writer_waits_for_readers_then_aborts():
    m, stm = make_stm(cores=2)
    x = m.alloc.word()
    stm.register_region(x, 1)
    outcome = []

    def reader(ctx):
        txn = Txn(stm, 0)
        yield from txn.read(x)
        yield ops.Compute(30_000)  # pin the read lock
        yield from txn.commit()

    def writer(ctx):
        yield ops.Compute(2_000)
        txn = Txn(stm, 1)
        try:
            yield from txn.write(x, 9)
            outcome.append("wrote")
        except TxnAbort:
            yield from txn.abort()
            outcome.append("abort")

    m.spawn(reader)
    m.spawn(writer)
    m.run()
    assert outcome == ["abort"]
    assert m.image.peek(x) == 0


def test_read_barrier_uses_critical_fence_write_uses_standard():
    """Fence placement per the paper §4.2: under WS+ the read barrier
    runs a wf and writer-side fences run as sfs."""
    m, stm = make_stm(FenceDesign.WS_PLUS, cores=1)
    x = m.alloc.word()
    stm.register_region(x, 1)

    def thread(ctx):
        txn = Txn(stm, 0)
        v = yield from txn.read(x)
        yield from txn.write(x, v + 1)
        yield from txn.commit()

    m.spawn(thread)
    m.run()
    assert m.stats.total_wf >= 1   # read barrier
    assert m.stats.total_sf >= 2   # write barrier + commit


def test_upgrade_read_to_write_releases_both_locks():
    m, stm = make_stm(cores=1)
    x = m.alloc.word()
    stm.register_region(x, 1)

    def thread(ctx):
        txn = Txn(stm, 0)
        v = yield from txn.read(x)
        yield from txn.write(x, v + 1)
        yield from txn.commit()
        # everything released: a fresh writer acquires cleanly
        txn2 = Txn(stm, 0)
        yield from txn2.write(x, 7)
        yield from txn2.commit()

    m.spawn(thread)
    m.run()
    lock = stm.lock_for(x)
    assert m.image.peek(lock.writer_addr) == 0
    assert all(m.image.peek(f) == 0 for f in lock.reader_flags)
    assert m.image.peek(x) == 7


def test_flag_padding_keeps_lock_within_one_block():
    m, stm = make_stm(cores=8)
    x = m.alloc.word()
    stm.register_region(x, 1)
    lock = stm.lock_for(x)
    words = lock.reader_flags + [lock.writer_addr]
    block = m.params.bank_interleave_bytes
    assert len({w // block for w in words}) == 1
    # flags are spread over lines per FLAGS_PER_LINE
    lines = {m.amap.line_of(f) for f in lock.reader_flags}
    assert len(lines) >= 8 // stm.FLAGS_PER_LINE


def eager_lock_table(alloc, num_threads, base, nwords, colocate_prob=0.35,
                     seed=7):
    """The lock table as ``register_region`` built it when every lock
    held its flag-address list: {word: (reader_flags, writer_addr)}."""
    rng = random.Random(seed)
    amap = alloc.amap
    wb, wpl = amap.word_bytes, amap.words_per_line
    block_lines = amap.interleave_bytes // amap.line_bytes
    flags_per_line = max(1, -(-num_threads // max(1, block_lines - 1)))
    total = (-(-num_threads // flags_per_line) + 1) * wpl
    stride = wpl // flags_per_line
    table = {}
    for i in range(nwords):
        word = base + i * wb
        if rng.random() < colocate_prob:
            lock_base = alloc.alloc_same_bank(word, total)
        else:
            lock_base = alloc.alloc_line(total)
        table[word] = (
            [lock_base + t * stride * wb for t in range(num_threads)],
            lock_base + (total - wpl) * wb,
        )
    return table


@pytest.mark.parametrize("threads", [1, 4, 8, 32])
def test_lock_addresses_equal_the_eager_formula(threads):
    """Computing flag addresses on request moves no simulated address:
    same allocator calls, same order, same sizes."""
    (m, _), (ref, _) = make_stm(cores=8), make_stm(cores=8)
    stm = TlrwStm(m.alloc, threads)
    nwords = 40
    region = m.alloc.alloc(nwords)
    assert ref.alloc.alloc(nwords) == region
    stm.register_region(region, nwords)
    expected = eager_lock_table(ref.alloc, threads, region, nwords)
    assert set(stm.locks) == set(expected)
    for word, (flags, writer_addr) in expected.items():
        lock = stm.lock_for(word)
        assert lock.reader_flags == flags
        assert lock.writer_addr == writer_addr
    # the next allocation lands at the same address on both machines
    assert m.alloc.word() == ref.alloc.word()


def test_op_caches_wait_for_the_first_barrier():
    m, stm = make_stm(cores=2)
    x, y = m.alloc.word(), m.alloc.word()
    stm.register_region(x, 1)
    stm.register_region(y, 1)
    assert all(lock.rd_ops is None and lock.wr_ops is None
               for lock in stm.locks.values())

    def thread(ctx):
        txn = Txn(stm, 1)
        yield from txn.read(x)
        yield from txn.commit()

    m.spawn(thread)
    m.run()
    touched, untouched = stm.lock_for(x), stm.lock_for(y)
    # thread 1's read barrier built thread 1's read ops, nothing else
    assert [ops_ is not None for ops_ in touched.rd_ops] == [False, True]
    assert touched.wr_ops is None
    assert untouched.rd_ops is None and untouched.wr_ops is None
    assert m.image.peek(touched.reader_flags[1]) == 0
