"""Property-based tests of TSO write-buffer invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.writebuffer import WriteBuffer

words = st.integers(min_value=0, max_value=15).map(lambda i: i * 4)
values = st.integers(min_value=0, max_value=1000)
programs = st.lists(st.tuples(words, values), min_size=1, max_size=40)


@given(programs)
@settings(max_examples=150, deadline=None)
def test_drain_order_is_program_order(program):
    wb = WriteBuffer(64)
    pushed = []
    for word, value in program:
        pushed.append(wb.push(word, value, line=word - word % 32))
    drained = []
    while not wb.empty:
        drained.append(wb.pop_head())
    assert drained == pushed
    ids = [e.store_id for e in drained]
    assert ids == sorted(ids)


@given(programs, words)
@settings(max_examples=150, deadline=None)
def test_forwarding_returns_newest_matching_value(program, probe):
    wb = WriteBuffer(64)
    for word, value in program:
        wb.push(word, value, line=word - word % 32)
    expected = None
    for word, value in program:
        if word == probe:
            expected = value
    entry = wb.forward_entry(probe)
    assert (entry.value if entry is not None else None) == expected


@given(programs, st.integers(min_value=0, max_value=39))
@settings(max_examples=150, deadline=None)
def test_entries_upto_is_a_prefix(program, cut):
    wb = WriteBuffer(64)
    entries = [wb.push(w, v, line=w - w % 32) for w, v in program]
    cut = min(cut, len(entries) - 1)
    boundary = entries[cut].store_id
    prefix = wb.entries_upto(boundary)
    assert prefix == entries[:cut + 1]


@given(programs, st.integers(min_value=0, max_value=39))
@settings(max_examples=150, deadline=None)
def test_drop_after_keeps_exact_prefix(program, cut):
    wb = WriteBuffer(64)
    entries = [wb.push(w, v, line=w - w % 32) for w, v in program]
    cut = min(cut, len(entries) - 1)
    boundary = entries[cut].store_id
    dropped = wb.drop_after(boundary)
    assert dropped == len(entries) - cut - 1
    assert wb.snapshot() == entries[:cut + 1]


@given(programs)
@settings(max_examples=100, deadline=None)
def test_forwarding_equivalent_to_sequential_memory(program):
    """Draining into a memory dict must equal last-write-wins; at every
    intermediate point forwarding+memory equals the program's view."""
    wb = WriteBuffer(64)
    memory = {}
    history = {}
    for word, value in program:
        wb.push(word, value, line=word - word % 32)
        history[word] = value
        # the thread's own view: WB forwarding first, then memory
        entry = wb.forward_entry(word)
        assert (entry.value if entry is not None
                else memory.get(word)) == value
    while not wb.empty:
        e = wb.pop_head()
        memory[e.word] = e.value
    assert memory == history
