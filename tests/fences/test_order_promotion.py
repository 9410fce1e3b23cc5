"""WS+'s Order promotion and SW+'s Conditional Order: one policy, one
flag.  A pre-wf store bounced while its wf is incomplete is promoted;
only SW+ fills the word mask a Conditional Order carries, and each
design's sanitizer check names the mask invariant it owns."""

from types import SimpleNamespace

import pytest

from repro.common.addr import AddressMap
from repro.common.params import FenceDesign
from repro.fences.base import PendingFence, make_policy
from repro.mem.writebuffer import StoreEntry


class _Promotions:
    def __init__(self):
        self.calls = []

    def order_promotion(self, core, count, conditional):
        self.calls.append((core, count, conditional))


def _policy(design, entries):
    core = SimpleNamespace(
        core_id=3,
        amap=AddressMap(line_bytes=64, word_bytes=8, num_banks=1),
        pending_fences=[PendingFence(fence_id=1,
                                     last_store_id=entries[-1].store_id)],
        wb=SimpleNamespace(_entries=entries),
        tracer=_Promotions(),
    )
    return make_policy(design, core)


@pytest.mark.parametrize("design,conditional", [
    (FenceDesign.WS_PLUS, False),
    (FenceDesign.SW_PLUS, True),
])
def test_bounced_pre_wf_store_is_promoted(design, conditional):
    entry = StoreEntry(word=64 + 16, value=1, line=64)
    policy = _policy(design, [entry])
    policy.on_pre_store_bounce(entry)
    assert entry.ordered
    assert entry.word_mask == (1 << 2 if conditional else 0)
    assert policy.core.tracer.calls == [(3, 1, conditional)]
    assert list(policy.sanitizer_check()) == []


def test_each_design_names_its_own_mask_invariant():
    masked = StoreEntry(word=64, value=1, line=64)
    masked.word_mask = 1
    ws = _policy(FenceDesign.WS_PLUS, [masked])
    assert [v[0] for v in ws.sanitizer_check()] == [
        "word-mask-on-coarse-design"]

    bare = StoreEntry(word=64, value=1, line=64)
    bare.ordered = True
    sw = _policy(FenceDesign.SW_PLUS, [bare])
    assert [v[0] for v in sw.sanitizer_check()] == [
        "cond-order-missing-mask"]
