"""Direct unit tests of DirectoryBank transaction handling.

These drive the bank with hand-built transactions against stub L1
controllers, checking the MESI state machine and the fence extensions
without a full machine in the loop.
"""

import pytest

from repro.common.events import EventQueue
from repro.common.params import MachineParams
from repro.common.stats import MachineStats
from repro.mem.directory import DirectoryBank
from repro.mem.messages import Msg, Transaction
from repro.mem.noc import MeshNoc


class StubL1:
    """Scriptable invalidation responder."""

    def __init__(self, response=(Msg.INV_ACK, False, False),
                 downgrade_dirty=False):
        self.response = response
        self.downgrade_dirty = downgrade_dirty
        self.invs = []
        self.downgrades = []

    def handle_inv(self, txn):
        self.invs.append(txn.line)
        return self.response

    def handle_downgrade(self, line):
        self.downgrades.append(line)
        return self.downgrade_dirty


def make_bank(num_cores=4, stubs=None):
    params = MachineParams(num_cores=num_cores, num_banks=num_cores)
    stats = MachineStats(num_cores)
    queue = EventQueue()
    noc = MeshNoc(params, stats)
    bank = DirectoryBank(0, params, stats, noc, queue)
    bank.controllers = stubs or [StubL1() for _ in range(num_cores)]
    return bank, queue, stats


def send(bank, queue, kind, requester, line, **kw):
    replies = []
    txn = Transaction(kind=kind, requester=requester, line=line, **kw)
    txn.on_done = lambda reply, t: replies.append((reply, t))
    bank.receive(txn)
    queue.run()
    return replies


LINE = 0x0  # homed at bank 0 with line interleaving


def test_first_gets_grants_exclusive():
    bank, queue, _ = make_bank()
    replies = send(bank, queue, Msg.GETS, 1, LINE)
    assert replies[0][0] is Msg.DATA
    assert replies[0][1].granted_exclusive
    entry = bank.dir_state(LINE)
    assert entry.owner == 1 and not entry.sharers


def test_second_gets_downgrades_owner():
    stubs = [StubL1() for _ in range(4)]
    stubs[1].downgrade_dirty = True
    bank, queue, stats = make_bank(stubs=stubs)
    send(bank, queue, Msg.GETS, 1, LINE)
    replies = send(bank, queue, Msg.GETS, 2, LINE)
    assert replies[0][0] is Msg.DATA
    assert not replies[0][1].granted_exclusive
    entry = bank.dir_state(LINE)
    assert entry.owner is None and entry.sharers == {1, 2}
    assert stubs[1].downgrades == [LINE]


def test_getx_invalidates_all_sharers():
    bank, queue, _ = make_bank()
    send(bank, queue, Msg.GETS, 1, LINE)
    send(bank, queue, Msg.GETS, 2, LINE)
    replies = send(bank, queue, Msg.GETX, 3, LINE)
    assert replies[0][0] is Msg.DATA
    entry = bank.dir_state(LINE)
    assert entry.owner == 3 and not entry.sharers
    assert bank.controllers[1].invs == [LINE]
    assert bank.controllers[2].invs == [LINE]


def test_getx_upgrade_replies_ack_not_data():
    bank, queue, _ = make_bank()
    send(bank, queue, Msg.GETS, 1, LINE)
    send(bank, queue, Msg.GETS, 2, LINE)
    replies = send(bank, queue, Msg.GETX, 2, LINE)
    assert replies[0][0] is Msg.ACK  # requester already held S


def test_bounced_inv_nacks_the_whole_transaction():
    stubs = [StubL1() for _ in range(4)]
    stubs[1].response = (Msg.INV_BOUNCE, False, False)
    bank, queue, stats = make_bank(stubs=stubs)
    send(bank, queue, Msg.GETS, 1, LINE)
    replies = send(bank, queue, Msg.GETX, 2, LINE)
    assert replies[0][0] is Msg.NACK_BOUNCE
    assert stats.bounces == 1
    # the bouncing sharer keeps its directory presence
    assert 1 in bank.dir_state(LINE).caching_cores()


def test_order_keeps_bs_matching_sharers():
    stubs = [StubL1() for _ in range(4)]
    stubs[1].response = (Msg.INV_KEEP_SHARER, False, False)
    bank, queue, stats = make_bank(stubs=stubs)
    send(bank, queue, Msg.GETS, 1, LINE)
    replies = send(bank, queue, Msg.ORDER, 2, LINE, ordered=True)
    assert replies[0][0] in (Msg.DATA, Msg.ACK)
    entry = bank.dir_state(LINE)
    # Order success: requester Shared alongside the BS holder
    assert entry.owner is None
    assert entry.sharers == {1, 2}
    assert stats.order_ops == 1


def test_cond_order_fails_on_true_sharing():
    stubs = [StubL1() for _ in range(4)]
    stubs[1].response = (Msg.INV_KEEP_SHARER, False, True)  # true sharing
    bank, queue, stats = make_bank(stubs=stubs)
    send(bank, queue, Msg.GETS, 1, LINE)
    replies = send(bank, queue, Msg.COND_ORDER, 2, LINE,
                   ordered=True, word_mask=0b1)
    assert replies[0][0] is Msg.NACK_BOUNCE
    assert stats.cond_order_failures == 1
    # the true-sharing BS holder stays a sharer
    assert 1 in bank.dir_state(LINE).sharers


def test_cond_order_succeeds_on_false_sharing():
    stubs = [StubL1() for _ in range(4)]
    stubs[1].response = (Msg.INV_KEEP_SHARER, False, False)
    bank, queue, stats = make_bank(stubs=stubs)
    send(bank, queue, Msg.GETS, 1, LINE)
    replies = send(bank, queue, Msg.COND_ORDER, 2, LINE,
                   ordered=True, word_mask=0b1)
    assert replies[0][0] in (Msg.DATA, Msg.ACK)
    assert stats.cond_order_ops == 1


def test_busy_line_serializes_requests():
    bank, queue, _ = make_bank()
    order = []
    for requester in (1, 2):
        txn = Transaction(kind=Msg.GETS, requester=requester, line=LINE)
        txn.on_done = lambda reply, t: order.append(t.requester)
        bank.receive(txn)
    queue.run()
    assert order == [1, 2]
    assert not bank._busy


def test_putm_clears_ownership_and_fills_l2():
    bank, queue, stats = make_bank()
    [(_reply, getx)] = send(bank, queue, Msg.GETX, 1, LINE)
    putm = Transaction(kind=Msg.PUTM, requester=1, line=LINE,
                       grant=getx.txn_id)
    bank.receive(putm)
    queue.run()
    assert bank.dir_state(LINE).owner is None
    assert stats.dirty_writebacks == 1
    assert LINE in bank._l2


def test_stale_putm_is_dropped():
    bank, queue, stats = make_bank()
    send(bank, queue, Msg.GETX, 1, LINE)
    send(bank, queue, Msg.GETX, 2, LINE)  # ownership moved to 2
    stale = Transaction(kind=Msg.PUTM, requester=1, line=LINE)
    bank.receive(stale)
    queue.run()
    assert bank.dir_state(LINE).owner == 2


def test_putm_of_an_older_grant_to_the_same_core_is_dropped():
    # the evictor re-acquired the line before its own PutM landed: the
    # PutM answers the first grant, the core owns the line by the second
    bank, queue, stats = make_bank()
    [(_reply, first)] = send(bank, queue, Msg.GETX, 1, LINE)
    [(_reply, second)] = send(bank, queue, Msg.GETX, 1, LINE)
    stale = Transaction(kind=Msg.PUTM, requester=1, line=LINE,
                        grant=first.txn_id)
    bank.receive(stale)
    queue.run()
    assert bank.dir_state(LINE).owner == 1
    assert stats.dirty_writebacks == 0
    current = Transaction(kind=Msg.PUTM, requester=1, line=LINE,
                          grant=second.txn_id)
    bank.receive(current)
    queue.run()
    assert bank.dir_state(LINE).owner is None
    assert stats.dirty_writebacks == 1


def test_putm_keep_sharer_flag():
    bank, queue, stats = make_bank()
    [(_reply, getx)] = send(bank, queue, Msg.GETX, 1, LINE)
    putm = Transaction(kind=Msg.PUTM, requester=1, line=LINE,
                       keep_sharers={1}, grant=getx.txn_id)
    bank.receive(putm)
    queue.run()
    entry = bank.dir_state(LINE)
    assert entry.owner is None and entry.sharers == {1}


def test_cold_miss_pays_memory_and_fills_l2():
    bank, queue, _ = make_bank()
    t0 = queue.now
    send(bank, queue, Msg.GETS, 1, LINE)
    cold = queue.now - t0
    send(bank, queue, Msg.GETX, 2, LINE)  # invalidate core 1
    t1 = queue.now
    send(bank, queue, Msg.GETS, 1, LINE + 0x99999 * 32 * 4)
    # different cold line still pays memory; the first line is in L2
    t2 = queue.now
    send(bank, queue, Msg.GETS, 3, LINE)
    warm = queue.now - t2
    assert cold > warm


def test_l2_capacity_evicts_lru():
    bank, queue, _ = make_bank()
    capacity = bank._l2_capacity
    for i in range(capacity + 10):
        bank._l2_fill(i * 32)
    assert len(bank._l2) == capacity
    assert 0 not in bank._l2  # oldest evicted


def test_grt_deposit_collect_withdraw():
    bank, queue, _ = make_bank()
    remote = bank.grt_deposit(0, 1, {0x100, 0x200})
    assert remote == set()
    remote = bank.grt_deposit(1, 7, {0x300})
    assert remote == {0x100, 0x200}
    # second fence of core 0 coexists with the first
    remote = bank.grt_deposit(0, 2, {0x400})
    assert remote == {0x300}
    bank.grt_withdraw(0, 1)
    remote = bank.grt_deposit(2, 1, set())
    assert remote == {0x300, 0x400}
