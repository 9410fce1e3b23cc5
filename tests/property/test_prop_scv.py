"""Property-based differential test of the SCV cycle check.

``find_scv`` reports a *particular* cycle — its length is serialised
into verify findings and synth reasons — so the property is not "finds
a cycle iff one exists" but "finds the cycle ``networkx.find_cycle``
finds on the same graph, edge for edge".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.memory import INIT_TAG
from repro.sim.scv import AccessEvent, find_scv

from tests.support import networkx_cycle

WORDS = (0x10, 0x20, 0x30)

#: one access before tags are assigned: (core, word, kind, po step,
#: index gap, pick).  ``pick`` chooses which store a load reads, out of
#: every store to its word in the *whole* history — a load may read a
#: store recorded after it, which is what makes histories cyclic.
raw_access = st.tuples(
    st.integers(0, 3),
    st.sampled_from(WORDS),
    st.sampled_from(("store", "load", "init", "fwd")),
    st.integers(0, 2),       # po step 0: two accesses share a po index
    st.integers(1, 3),       # index gap > 1: a W+ squash renumbered
    st.integers(0, 1 << 16),
)


@st.composite
def histories(draw):
    raw = draw(st.lists(raw_access, min_size=2, max_size=28))
    cores = draw(st.integers(2, 4))
    po = [0] * cores
    index = -1
    serial = 0
    shells = []              # (index, core, word, kind, po, pick, tag)
    stores = {w: [] for w in WORDS}
    for core, word, kind, step, gap, pick in raw:
        core %= cores
        po[core] += step
        index += gap
        tag = None
        if kind == "store":
            serial += 1
            tag = (core, serial)
            stores[word].append(tag)
        shells.append((index, core, word, kind, po[core], pick, tag))
    events = []
    for index, core, word, kind, po_idx, pick, tag in shells:
        if kind == "fwd":
            # provisional tag naming a po index of the same core: it
            # resolves when a store sits there, else stays unresolved
            tag = ("fwd", core, pick % (po_idx + 1))
        elif kind == "init" or (kind == "load" and not stores[word]):
            tag = INIT_TAG
        elif kind == "load":
            tag = stores[word][pick % len(stores[word])]
        events.append(AccessEvent(
            index, "store" if kind == "store" else "load",
            core, word, 0, tag, po_idx))
    if draw(st.booleans()):
        # record order need not follow index order either
        events = draw(st.permutations(events))
    return events


@given(histories())
@settings(max_examples=400, deadline=None)
def test_find_scv_returns_the_cycle_networkx_returns(events):
    assert find_scv(events) == networkx_cycle(events)


@given(histories())
@settings(max_examples=200, deadline=None)
def test_reported_cycle_is_a_closed_walk_over_recorded_events(events):
    cycle = find_scv(events)
    if cycle is None:
        return
    recorded = {ev.index for ev in events}
    assert all(u in recorded and v in recorded for u, v in cycle)
    assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:]))
    assert cycle[-1][1] == cycle[0][0]
    assert len({u for u, _v in cycle}) == len(cycle)  # simple
