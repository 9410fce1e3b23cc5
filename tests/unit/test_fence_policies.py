"""Direct unit tests of the fence-policy classes."""

import pytest

from repro.common.params import FenceDesign, FenceFlavour, FenceRole
from repro.fences.base import PendingFence, make_policy
from repro.fences.cfence import CFenceTable
from repro.sim.machine import Machine

from tests.support import tiny_params


def core_for(design, num_cores=2):
    m = Machine(tiny_params(design, num_cores=num_cores))
    return m.cores[0]


def test_make_policy_covers_every_design():
    core = core_for(FenceDesign.S_PLUS)
    for design in FenceDesign:
        policy = make_policy(design, core)
        assert policy.design is design


def test_policy_class_map_is_built_once():
    from repro.fences.base import _policy_classes, policy_class

    assert _policy_classes() is _policy_classes()
    assert set(_policy_classes()) == set(FenceDesign)
    for design in FenceDesign:
        assert policy_class(design).design is design


def test_l1s_share_the_machines_address_map():
    m = Machine(tiny_params(FenceDesign.S_PLUS, num_cores=4))
    assert all(l1.amap is m.amap for l1 in m.l1s)
    assert all(core.amap is m.amap for core in m.cores)
    assert m.alloc.amap is m.amap


def test_ws_plus_promotes_only_pre_fence_bouncing_entries():
    core = core_for(FenceDesign.WS_PLUS)
    e1 = core.wb.push(0x20, 1, 0x20)
    e2 = core.wb.push(0x40, 1, 0x40)
    e1.bouncing = True
    pf = PendingFence(fence_id=1, last_store_id=e1.store_id)
    core.pending_fences.append(pf)
    assert core.policy.on_wf_retire(pf) is True
    assert e1.ordered and not e2.ordered
    # a later bounce of a covered entry promotes too
    e1b = core.wb.push(0x60, 1, 0x60)
    e1b.bouncing = True
    core.policy.on_pre_store_bounce(e1b)
    assert not e1b.ordered  # post-fence entry: not covered
    e1.ordered = False
    core.policy.on_pre_store_bounce(e1)
    assert e1.ordered


def test_sw_plus_promotion_carries_word_mask():
    core = core_for(FenceDesign.SW_PLUS)
    entry = core.wb.push(0x24, 1, 0x20)  # word 1 of the line
    entry.bouncing = True
    pf = PendingFence(fence_id=1, last_store_id=entry.store_id)
    core.pending_fences.append(pf)
    core.policy.on_wf_retire(pf)
    assert entry.ordered and entry.word_mask == 0b10


def test_w_plus_flags():
    core = core_for(FenceDesign.W_PLUS)
    assert core.policy.needs_checkpoint
    assert core.policy.needs_deadlock_monitor
    assert core.policy.on_wf_retire(PendingFence(1, 1)) is True


def test_wee_demotes_multibank_pending_set():
    core = core_for(FenceDesign.WEE)
    block = core.params.bank_interleave_bytes
    core.wb.push(0x0, 1, 0x0)            # bank 0
    core.wb.push(block, 1, block)        # bank 1
    pf = PendingFence(fence_id=1, last_store_id=core.wb.newest_store_id())
    assert core.policy.on_wf_retire(pf) is False


def test_wee_completion_blocked_until_grt_reply():
    core = core_for(FenceDesign.WEE)
    core.wb.push(0x0, 1, 0x0)
    pf = PendingFence(fence_id=1, last_store_id=core.wb.newest_store_id())
    assert core.policy.on_wf_retire(pf) is True
    assert core.policy.completion_blocked(pf)
    pf.wee_remote_ps = set()
    assert not core.policy.completion_blocked(pf)


def test_lmf_cost_tracks_line_state():
    from repro.fences.lmf import LMF_FAST_CYCLES
    from repro.mem.cache import LineState
    core = core_for(FenceDesign.LMF)
    # empty WB: fast
    assert core.policy.sf_base_cost() == LMF_FAST_CYCLES
    entry = core.wb.push(0x20, 1, 0x20)
    # line not cached writable: fallback
    assert core.policy.sf_base_cost() == core.params.sf_base_cycles
    core.l1.cache.insert(0x20, LineState.M)
    assert core.policy.sf_base_cost() == LMF_FAST_CYCLES


def test_cfence_table_serializes_and_notifies():
    table = CFenceTable()
    assert table.associates_of(0) == []
    table.register(0, 10)
    assert table.associates_of(1) == [0]
    assert table.associates_of(0) == []  # never your own associate
    fired = []
    table.wait(lambda: fired.append(1))
    table.clear(0)
    assert fired == [1]
    assert table.associates_of(1) == []
    table.clear(0)  # idempotent
