"""Property-based tests of the set-associative cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import _EMPTY, LineState, SetAssocCache

LINE = 32
SETS = 4
WAYS = 2

lines = st.integers(min_value=0, max_value=63).map(lambda i: i * LINE)
states = st.sampled_from(list(LineState))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), lines, states),
        st.tuples(st.just("lookup"), lines),
        st.tuples(st.just("invalidate"), lines),
        st.tuples(st.just("set_state"), lines, states),
        st.tuples(st.just("victim"), lines),
        st.tuples(st.just("write_hit"), lines),
    ),
    max_size=60,
)


def fresh():
    return SetAssocCache(SETS * WAYS * LINE, WAYS, LINE)


def touched():
    """A cache whose every set was filled once and emptied again: what
    an eagerly built cache is — no slot is the shared sentinel."""
    cache = fresh()
    for idx in range(SETS):
        cache.insert(idx * LINE, LineState.S)
        cache.invalidate(idx * LINE)
    assert all(s is not _EMPTY and not s for s in cache.sets)
    return cache


#: the model-based properties hold from either starting point
both_starts = pytest.mark.parametrize("make", [fresh, touched])


def step(cache, op):
    """Apply one operation; returns what the method returned."""
    if op[0] == "set_state" and cache.victim(op[1]) is not None:
        # set_state() never evicts: its callers use it on a present
        # line or a set with room, so the sequences do the same
        return "skipped"
    return getattr(cache, op[0])(*op[1:])


def apply_ops(cache, ops_list):
    model = {}  # line -> state, plus LRU via list per set
    for op in ops_list:
        if op[0] == "insert":
            _k, line, state = op
            evicted = cache.insert(line, state)
            model[line] = state
            if evicted is not None:
                del model[evicted[0]]
        elif op[0] == "invalidate":
            cache.invalidate(op[1])
            model.pop(op[1], None)
        elif op[0] == "set_state":
            if step(cache, op) != "skipped":
                model[op[1]] = op[2]
        elif op[0] == "write_hit":
            if cache.write_hit(op[1]):
                model[op[1]] = LineState.M
        else:
            step(cache, op)
    return model


@both_starts
@given(operations)
@settings(max_examples=150, deadline=None)
def test_capacity_never_exceeded(make, ops_list):
    cache = make()
    apply_ops(cache, ops_list)
    for s in cache.sets:
        assert len(s) <= WAYS


@both_starts
@given(operations)
@settings(max_examples=150, deadline=None)
def test_contents_match_reference_model(make, ops_list):
    cache = make()
    model = apply_ops(cache, ops_list)
    assert dict(cache.lines()) == model


@both_starts
@given(operations)
@settings(max_examples=150, deadline=None)
def test_lines_stay_in_their_set(make, ops_list):
    cache = make()
    apply_ops(cache, ops_list)
    for idx, s in enumerate(cache.sets):
        for line in s:
            assert (line // LINE) % SETS == idx


@given(st.lists(lines, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_most_recently_inserted_never_evicted(sequence):
    cache = fresh()
    for line in sequence:
        evicted = cache.insert(line, LineState.S)
        assert cache.lookup(line) is not None
        if evicted is not None:
            assert evicted[0] != line


# ---------------------------------------------------------------------------
# write_hit: the store path's lookup + writable test + M in one call
# ---------------------------------------------------------------------------


def write_hit_reference(cache, line):
    """What the store drain did before write_hit() existed."""
    state = cache.lookup(line)
    if state is not None and state.writable:
        cache.set_state(line, LineState.M)
        return True
    return False


@both_starts
@given(operations, st.lists(lines, min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_write_hit_is_lookup_writable_set_state(make, ops_list, stores):
    one, ref = make(), make()
    for op in ops_list:
        if op[0] != "write_hit":
            assert step(one, op) == step(ref, op)
    for line in stores:
        before = [s is _EMPTY for s in one.sets]
        assert one.write_hit(line) == write_hit_reference(ref, line)
        # same states in the same sets in the same LRU order ...
        assert [list(s.items()) for s in one.sets] == \
            [list(s.items()) for s in ref.sets]
        # ... and neither a hit nor a miss builds a set
        assert [s is _EMPTY for s in one.sets] == before
    assert len(_EMPTY) == 0


def test_write_hit_on_any_geometry():
    """The divide-and-modulo indexing (3 sets) agrees with the
    shift-and-mask one on which set a line lives in."""
    cache = SetAssocCache(3 * WAYS * LINE, WAYS, LINE)
    for i, state in enumerate(LineState):
        cache.insert(i * LINE, state)
    assert [cache.write_hit(i * LINE) for i in range(4)] == \
        [True, True, False, False]
    assert dict(cache.lines()) == {
        0: LineState.M, LINE: LineState.M, 2 * LINE: LineState.S}


def test_line_state_truth_table():
    assert {s: s.writable for s in LineState} == {
        LineState.M: True, LineState.E: True, LineState.S: False}
    # a plain attribute of the member, not a descriptor call per read
    assert all("writable" in vars(s) for s in LineState)
    assert [s.value for s in LineState] == ["M", "E", "S"]
    assert LineState("E") is LineState.E


# ---------------------------------------------------------------------------
# lazily built sets: never-filled slots share one empty OrderedDict
# ---------------------------------------------------------------------------


@given(operations)
@settings(max_examples=200, deadline=None)
def test_lazy_sets_behave_as_eagerly_built_ones(ops_list):
    lazy, eager = fresh(), touched()
    for op in ops_list:
        assert step(lazy, op) == step(eager, op), op
        # lines() and occupancy() skip empty sets, shared or not: the
        # same pairs in the same set and LRU order after every step
        assert list(lazy.lines()) == list(eager.lines()) == [
            pair for s in eager.sets for pair in s.items()]
        assert lazy.occupancy() == eager.occupancy() == sum(
            len(s) for s in eager.sets)
    for probe in range(0, 64 * LINE, LINE):
        assert lazy.victim(probe) == eager.victim(probe)
        assert lazy.lookup(probe, touch=False) == \
            eager.lookup(probe, touch=False)


@given(operations, operations)
@settings(max_examples=200, deadline=None)
def test_caches_share_no_state(ops_a, ops_b):
    a, b = fresh(), fresh()
    model_a = apply_ops(a, ops_a)
    assert b.occupancy() == 0 and list(b.lines()) == []
    model_b = apply_ops(b, ops_b)
    assert dict(a.lines()) == model_a
    assert dict(b.lines()) == model_b
    # a filled slot is private to its cache; only the sentinel is shared
    for sa, sb in zip(a.sets, b.sets):
        assert sa is not sb or sa is _EMPTY


@given(operations)
@settings(max_examples=200, deadline=None)
def test_shared_empty_set_is_never_written(ops_list):
    cache = fresh()
    apply_ops(cache, ops_list)
    assert len(_EMPTY) == 0
    # reads of a never-filled set answer "absent" and leave it alone
    untouched = [i for i, s in enumerate(cache.sets) if s is _EMPTY]
    for idx in untouched:
        line = idx * LINE
        assert cache.lookup(line) is None
        assert cache.invalidate(line) is None
        assert cache.victim(line) is None
        assert cache.sets[idx] is _EMPTY
    assert len(_EMPTY) == 0
    assert cache.occupancy() == sum(len(s) for s in cache.sets)


def test_first_fill_gives_the_slot_its_own_set():
    cache = fresh()
    assert all(s is _EMPTY for s in cache.sets)
    cache.insert(1 * LINE, LineState.S)
    cache.set_state(2 * LINE, LineState.M)
    assert [s is _EMPTY for s in cache.sets] == [True, False, False, True]
    assert cache.sets[1] is not cache.sets[2]
    assert dict(cache.lines()) == {LINE: LineState.S, 2 * LINE: LineState.M}
    # emptying a set again does not hand the slot back
    cache.invalidate(1 * LINE)
    assert cache.sets[1] is not _EMPTY and not cache.sets[1]
