"""Unit tests for the coherent memory image."""

from repro.mem.memory import INIT_TAG, MemoryImage


def _observed_tags(img):
    """The writer tag every load reports to the image's observer."""
    tags = []
    img.observer = lambda kind, core, word, value, tag: (
        tags.append(tag) if kind == "load" else None)
    return tags


def test_untouched_memory_reads_zero():
    img = MemoryImage()
    tags = _observed_tags(img)
    assert img.read(0x1000) == 0
    assert tags == [INIT_TAG]


def test_write_then_read():
    img = MemoryImage()
    tags = _observed_tags(img)
    tag = img.write(0x40, 7, core=2)
    assert img.read(0x40) == 7
    assert tags == [tag]
    assert tag[0] == 2


def test_write_serials_are_monotone():
    img = MemoryImage()
    t1 = img.write(0x0, 1, core=0)
    t2 = img.write(0x4, 2, core=1)
    t3 = img.write(0x0, 3, core=0)
    assert t1[1] < t2[1] < t3[1]


def test_rmw_is_one_event():
    img = MemoryImage()
    img.write(0x8, 10, core=0)
    old, new = img.rmw(0x8, lambda v: v + 5, core=1)
    assert (old, new) == (10, 15)
    assert img.read(0x8) == 15


def test_observer_sees_loads_and_stores():
    img = MemoryImage()
    seen = []
    img.observer = lambda *args: seen.append(args)
    img.write(0x4, 9, core=1)
    img.read(0x4, core=0)
    kinds = [s[0] for s in seen]
    assert kinds == ["store", "load"]
    # the load reports the tag of the store it read
    assert seen[1][4] == seen[0][4]


def test_poke_peek_bypass_observer():
    img = MemoryImage()
    seen = []
    img.observer = lambda *args: seen.append(args)
    img.poke(0x4, 42)
    assert img.peek(0x4) == 42
    assert seen == []


def test_len_counts_distinct_words():
    img = MemoryImage()
    img.write(0x0, 1)
    img.write(0x0, 2)
    img.write(0x4, 3)
    assert len(img) == 2
