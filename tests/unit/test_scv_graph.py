"""Unit tests for the Shasha–Snir dependence-graph checker."""

import pytest

from repro.common.errors import SCViolationError
from repro.mem.memory import INIT_TAG
from repro.sim.scv import (
    AccessEvent,
    assert_sequentially_consistent,
    build_dependence_graph,
    find_scv,
)


from tests.fences.test_conformance_matrix import MATRIX, case_events
from tests.support import networkx_cycle


def ev(i, kind, core, word, tag, po, value=0):
    return AccessEvent(i, kind, core, word, value, tag, po)


def edges(succ, kind=None):
    """``(u, v)`` edges of a successor map, optionally of one kind."""
    return [(u, v) for u, outs in succ.items() for v, k in outs.items()
            if kind is None or k == kind]


def kinds(succ):
    return {k for outs in succ.values() for k in outs.values()}


def test_access_event_has_slots_and_stays_a_dataclass():
    import dataclasses

    event = ev(3, "load", 1, 0x10, INIT_TAG, po=2, value=5)
    assert not hasattr(event, "__dict__")
    assert dataclasses.astuple(event) == (3, "load", 1, 0x10, 5, INIT_TAG, 2)
    assert event == ev(3, "load", 1, 0x10, INIT_TAG, po=2, value=5)
    event.index = 0     # squash() renumbers in place
    assert event.index == 0


def test_sequential_trace_is_sc():
    # P0 writes x, P1 reads it afterwards
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "load", 1, 0x10, (0, 1), po=1),
    ]
    assert find_scv(events) is None
    assert_sequentially_consistent(events)


def test_store_buffering_cycle_detected():
    # classic SB outcome (0,0): each load reads the initial value while
    # the other core's store is po-earlier
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "load", 0, 0x20, INIT_TAG, po=2),
        ev(2, "store", 1, 0x20, (1, 2), po=1),
        ev(3, "load", 1, 0x10, INIT_TAG, po=2),
    ]
    cycle = find_scv(events)
    assert cycle is not None
    with pytest.raises(SCViolationError):
        assert_sequentially_consistent(events)


def test_sb_with_one_fresh_read_is_sc():
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "load", 0, 0x20, (1, 2), po=2),   # reads P1's store
        ev(2, "store", 1, 0x20, (1, 2), po=1),
        ev(3, "load", 1, 0x10, INIT_TAG, po=2),  # reads old x
    ]
    assert find_scv(events) is None


def test_graph_edge_kinds():
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "store", 1, 0x10, (1, 2), po=1),
        ev(2, "load", 0, 0x10, (0, 1), po=2),
    ]
    g = build_dependence_graph(events)
    # co (store order), po (within P0), fr (load -> co-later store)
    assert {"co", "po", "fr"} <= kinds(g)


def test_rf_edge_cross_core_only():
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "load", 1, 0x10, (0, 1), po=1),
        ev(2, "load", 0, 0x10, (0, 1), po=2),
    ]
    g = build_dependence_graph(events)
    assert edges(g, "rf") == [(0, 1)]  # the same-core read is covered by po


def test_three_thread_cycle_detected():
    # P0: st x, ld y(old); P1: st y, ld z(old); P2: st z, ld x(old)
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "load", 0, 0x20, INIT_TAG, po=2),
        ev(2, "store", 1, 0x20, (1, 2), po=1),
        ev(3, "load", 1, 0x30, INIT_TAG, po=2),
        ev(4, "store", 2, 0x30, (2, 3), po=1),
        ev(5, "load", 2, 0x10, INIT_TAG, po=2),
    ]
    assert find_scv(events) is not None


# ---------------------------------------------------------------------------
# write-buffer-forwarded loads (regression: previously unrecorded)
# ---------------------------------------------------------------------------


def test_forwarded_load_resolves_to_source_store_tag():
    # P0: st x (merged later, recorded with po=1), forwarded ld x
    # (provisional tag); P1: co-later st x.  The forwarded load must
    # gain an fr edge to P1's store once its tag resolves.
    events = [
        ev(0, "load", 0, 0x10, ("fwd", 0, 1), po=2, value=1),
        ev(1, "store", 0, 0x10, (0, 1), po=1, value=1),
        ev(2, "store", 1, 0x10, (1, 2), po=1, value=2),
    ]
    g = build_dependence_graph(events)
    assert (0, 2) in edges(g, "fr")


def test_forwarded_load_unresolved_tag_keeps_po_only():
    # the source store never merged (W+ squash): no rf/fr edges, but
    # the forwarded load still participates in program order
    events = [
        ev(0, "load", 0, 0x10, ("fwd", 0, 1), po=2, value=1),
        ev(1, "load", 0, 0x20, INIT_TAG, po=3),
    ]
    g = build_dependence_graph(events)
    assert kinds(g) == {"po"}


def test_same_address_store_load_litmus_records_forwarded_read():
    """Regression for the documented SCV blind spot: a load satisfied
    by the core's own write buffer must appear in the event trace as a
    po-ordered access (it used to bypass recording entirely)."""
    from repro.core import isa as ops
    from repro.sim.machine import Machine
    from tests.support import tiny_params

    m = Machine(tiny_params(track_dependences=True), seed=7)
    x, y = m.alloc.word(), m.alloc.word()

    def t0(ctx):
        yield ops.Store(x, 1)
        r1 = yield ops.Load(x)       # forwarded from the write buffer
        yield ops.Note(("r1", r1))
        r2 = yield ops.Load(y)
        yield ops.Note(("r2", r2))

    def t1(ctx):
        yield ops.Store(y, 1)
        r3 = yield ops.Load(x)

    m.spawn(t0)
    m.spawn(t1)
    result = m.run()
    assert result.completed

    word_x = m.amap.word_of(x)
    fwd = [e for e in result.events
           if e.kind == "load" and e.core == 0 and e.word == word_x]
    assert fwd, "forwarded same-address load went unrecorded"
    assert fwd[0].value == 1
    # the forwarded load is po-after P0's store to x
    p0_store = next(e for e in result.events
                    if e.kind == "store" and e.core == 0
                    and e.word == word_x)
    assert fwd[0].po > p0_store.po
    # and the graph stays analyzable (no crash on the provisional tag)
    build_dependence_graph(result.events)


# ---------------------------------------------------------------------------
# the successor map and the cycle it pins
# ---------------------------------------------------------------------------


def test_successor_map_keeps_event_and_edge_order():
    # nodes in event order (gaps in index and all); a node's out-edges
    # po first, then co, then rf/fr
    events = [
        ev(4, "store", 0, 0x10, (0, 1), po=1),
        ev(7, "load", 1, 0x10, (0, 1), po=1),
        ev(9, "store", 1, 0x10, (1, 2), po=2),
        ev(12, "store", 0, 0x20, (0, 3), po=2),
    ]
    g = build_dependence_graph(events)
    assert list(g) == [4, 7, 9, 12]
    assert list(g[4].items()) == [(12, "po"), (9, "co"), (7, "rf")]


def test_repeated_edge_keeps_its_place_and_takes_the_later_kind():
    # P0's two stores to x are po-adjacent and co-adjacent: 0 -> 1 is
    # added as po, then again as co — one edge, first in line, kind co
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "store", 0, 0x10, (0, 2), po=2),
        ev(2, "load", 1, 0x10, (0, 1), po=1),
    ]
    g = build_dependence_graph(events)
    assert list(g[0].items()) == [(1, "co"), (2, "rf")]
    assert edges(g) == [(0, 1), (0, 2), (2, 1)]


def test_fr_edge_cross_core_only():
    # P1 overwrites the value its own load read: po covers it, no fr
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "load", 1, 0x10, (0, 1), po=1),
        ev(2, "store", 1, 0x10, (1, 2), po=2),
    ]
    g = build_dependence_graph(events)
    assert g[1] == {2: "po"}
    assert edges(g, "fr") == []


def test_store_buffering_cycle_is_the_pinned_one():
    events = [
        ev(0, "store", 0, 0x10, (0, 1), po=1),
        ev(1, "load", 0, 0x20, INIT_TAG, po=2),
        ev(2, "store", 1, 0x20, (1, 2), po=1),
        ev(3, "load", 1, 0x10, INIT_TAG, po=2),
    ]
    assert find_scv(events) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert find_scv(events) == networkx_cycle(events)


def test_cycle_skips_the_acyclic_prefix_of_the_search_path():
    # the search enters at event 0, which is on no cycle: the cycle
    # returned starts at the first revisited node, not at the root
    events = [
        ev(0, "store", 2, 0x30, (2, 9), po=1),
        ev(1, "load", 2, 0x10, (0, 1), po=2),
        ev(2, "store", 0, 0x10, (0, 1), po=1),
        ev(3, "load", 0, 0x20, INIT_TAG, po=2),
        ev(4, "store", 1, 0x20, (1, 2), po=1),
        ev(5, "load", 1, 0x10, INIT_TAG, po=2),
    ]
    cycle = find_scv(events)
    assert cycle == [(2, 3), (3, 4), (4, 5), (5, 2)]
    assert cycle == networkx_cycle(events)


def test_long_history_needs_no_recursion():
    # one core, 50k po-ordered loads: the search is iterative
    events = [ev(i, "load", 0, 0x10, INIT_TAG, po=i) for i in range(50_000)]
    assert find_scv(events) is None


@pytest.mark.parametrize("shape,design,fences", MATRIX)
def test_matrix_histories_agree_with_networkx(shape, design, fences):
    """Every run of the litmus conformance matrix: the same cycle, edge
    for edge, as networkx finds on the same graph (or none on both)."""
    events = case_events(shape, design, fences)
    assert events, "the case recorded no accesses"
    assert find_scv(events) == networkx_cycle(events)
