"""Unit tests for the Bypass Set."""

from repro.core.bypass_set import BypassSet


def test_add_and_line_match():
    bs = BypassSet(capacity=4)
    bs.add(0x100, word_mask=0b1, fence_id=1)
    assert bs.match_line(0x100)
    assert not bs.match_line(0x120)
    assert len(bs) == 1


def test_duplicate_line_merges_masks_and_keeps_youngest_fence():
    bs = BypassSet(capacity=2, fine_grain=True)
    bs.add(0x100, 0b001, fence_id=1)
    bs.add(0x100, 0b100, fence_id=2)
    assert len(bs) == 1
    assert bs.true_sharing(0x100, 0b001)
    assert bs.true_sharing(0x100, 0b100)
    assert not bs.true_sharing(0x100, 0b010)
    # entry tagged with the youngest covering fence: fence 1 completing
    # must not clear it
    assert bs.clear_upto(1) == 0
    assert bs.match_line(0x100)
    assert bs.clear_upto(2) == 1
    assert not bs.match_line(0x100)


def test_coarse_grain_treats_any_match_as_true_sharing():
    bs = BypassSet(capacity=2, fine_grain=False)
    bs.add(0x100, 0b001, fence_id=1)
    assert bs.true_sharing(0x100, 0b1000)
    assert not bs.true_sharing(0x200, 0b1)


def test_capacity_and_full():
    bs = BypassSet(capacity=2)
    bs.add(0x100, 0b1, 1)
    bs.add(0x120, 0b1, 1)
    assert bs.full
    # re-adding a present line is allowed even when full
    bs.add(0x100, 0b10, 1)
    assert len(bs) == 2


def test_clear_upto_is_selective():
    bs = BypassSet(capacity=8)
    bs.add(0x100, 0b1, fence_id=1)
    bs.add(0x200, 0b1, fence_id=2)
    bs.add(0x300, 0b1, fence_id=3)
    assert bs.clear_upto(2) == 2
    assert not bs.match_line(0x100)
    assert not bs.match_line(0x200)
    assert bs.match_line(0x300)


def test_bounce_flag_lifecycle():
    bs = BypassSet(capacity=4)
    bs.add(0x100, 0b1, 1)
    assert not bs.bounced_since_clear
    bs.note_bounce()
    assert bs.bounced_since_clear
    bs.clear_upto(1)
    # set emptied: the deadlock-suspicion signal resets
    assert bs.empty and not bs.bounced_since_clear


def test_clear_all():
    bs = BypassSet(capacity=4)
    bs.add(0x100, 0b1, 1)
    bs.add(0x200, 0b1, 2)
    bs.note_bounce()
    assert bs.clear_all() == 2
    assert bs.empty and not bs.bounced_since_clear
    assert not bs.match_line(0x100)


def test_bloom_rebuild_after_clear():
    bs = BypassSet(capacity=8)
    for i in range(6):
        bs.add(0x100 + i * 32, 0b1, fence_id=1 + (i % 2))
    bs.clear_upto(1)
    # survivors still match after a partial clear
    for i in range(6):
        expected = (i % 2) == 1
        assert bs.match_line(0x100 + i * 32) is expected
