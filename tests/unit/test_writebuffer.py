"""Unit tests for the TSO write buffer."""

import pytest

from repro.mem.writebuffer import WriteBuffer


def push(wb, word, value=0):
    return wb.push(word, value, line=word - word % 32)


def test_fifo_order():
    wb = WriteBuffer(4)
    e1 = push(wb, 0x20, 1)
    e2 = push(wb, 0x40, 2)
    assert wb.head() is e1
    assert wb.pop_head() is e1
    assert wb.head() is e2


def test_capacity_and_full():
    wb = WriteBuffer(2)
    push(wb, 0x20)
    assert not wb.full
    push(wb, 0x40)
    assert wb.full
    # overflow protection is the caller's contract: the core checks
    # ``full`` and stalls before retiring a store; push never checks.


def test_forwarding_newest_value_wins():
    wb = WriteBuffer(8)
    push(wb, 0x20, 1)
    push(wb, 0x40, 2)
    push(wb, 0x20, 3)
    assert wb.forward_entry(0x20).value == 3
    assert wb.forward_entry(0x40).value == 2
    assert wb.forward_entry(0x80) is None


def test_newest_store_id_marks_fence_boundary():
    wb = WriteBuffer(8)
    assert wb.newest_store_id() == 0
    e1 = push(wb, 0x20)
    e2 = push(wb, 0x40)
    assert wb.newest_store_id() == e2.store_id
    assert e1 in wb.snapshot()
    assert wb.entries_upto(e1.store_id) == [e1]
    assert wb.entries_upto(e2.store_id) == [e1, e2]


def test_mark_ordered_promotes_only_bouncing_pre_fence_entries():
    wb = WriteBuffer(8)
    e1 = push(wb, 0x20)
    e2 = push(wb, 0x40)
    e3 = push(wb, 0x60)  # post-fence
    e1.bouncing = True
    e3.bouncing = True
    promoted = wb.mark_ordered_upto(e2.store_id)
    assert promoted == 1
    assert e1.ordered and not e2.ordered and not e3.ordered


def test_mark_ordered_with_word_mask():
    wb = WriteBuffer(8)
    e1 = push(wb, 0x24)
    e1.bouncing = True
    wb.mark_ordered_upto(e1.store_id, word_mask_fn=lambda w: 1 << ((w % 32) // 4))
    assert e1.ordered
    assert e1.word_mask == 0b10


def test_drop_after_discards_post_fence_suffix():
    wb = WriteBuffer(8)
    e1 = push(wb, 0x20)
    e2 = push(wb, 0x40)
    e3 = push(wb, 0x60)
    dropped = wb.drop_after(e1.store_id)
    assert dropped == 2
    assert wb.snapshot() == [e1]
    assert wb.drop_after(e1.store_id) == 0


def test_drop_after_refuses_issued_suffix():
    wb = WriteBuffer(8)
    e1 = push(wb, 0x20)
    e2 = push(wb, 0x40)
    e2.issued = True
    with pytest.raises(AssertionError):
        wb.drop_after(e1.store_id)


def test_any_bouncing_and_clear():
    wb = WriteBuffer(4)
    e = push(wb, 0x20)
    assert not wb.any_bouncing()
    e.bouncing = True
    assert wb.any_bouncing()
    entries = wb.clear()
    assert entries == [e]
    assert wb.empty
