"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.params import FenceDesign, MachineParams
from repro.sim.machine import Machine

ALL_DESIGNS = tuple(FenceDesign)
WEAK_DESIGNS = (FenceDesign.WS_PLUS, FenceDesign.SW_PLUS,
                FenceDesign.W_PLUS, FenceDesign.WEE)


def reset_global_id_streams():
    """Rewind the process-global txn/store id counters.

    The ids land in trace-event args; without the rewind, a run's trace
    depends on how many machines the process ran before it — run-order
    noise, not a difference in what was traced.
    """
    import itertools

    from repro.mem import messages, writebuffer

    messages._txn_ids = itertools.count(1)
    writebuffer._store_ids = itertools.count(1)


def tiny_params(design=FenceDesign.S_PLUS, num_cores=2, exact=True, **over):
    """Small machine for protocol/litmus tests.

    ``exact=True`` disables the local-op micro-batching so event
    interleavings are cycle-exact.
    """
    base = MachineParams(
        num_cores=num_cores,
        num_banks=num_cores,
        batch_cycles=0 if exact else 24,
        track_dependences=over.pop("track_dependences", False),
    ).with_design(design)
    return replace(base, **over) if over else base


@pytest.fixture
def machine():
    """A 2-core S+ machine with exact interleaving."""
    return Machine(tiny_params(), seed=99)


def run_threads(m: Machine, *fns, max_cycles=None):
    """Spawn the given generator functions and run to completion."""
    for fn in fns:
        m.spawn(fn)
    return m.run(max_cycles=max_cycles)


def notes_of(machine: Machine, tid: int):
    """Payloads the thread on core *tid* recorded via ops.Note."""
    return [payload for _po, payload in machine.cores[tid].notes]


def networkx_cycle(events):
    """The cycle ``networkx.find_cycle`` reports on the dependence
    graph of *events*, as a list of ``(u, v)`` edges (None if acyclic).

    The reference oracle for :func:`repro.sim.scv.find_scv`: networkx
    is a test-only dependency, and the graph is rebuilt here from the
    checker's own successor map, node order and edge order included.
    """
    nx = pytest.importorskip("networkx")
    from repro.sim.scv import build_dependence_graph

    succ = build_dependence_graph(events)
    g = nx.DiGraph()
    g.add_nodes_from(succ)
    for u, outs in succ.items():
        for v, kind in outs.items():
            g.add_edge(u, v, kind=kind)
    try:
        return [(u, v) for u, v, _ in
                nx.find_cycle(g, orientation="original")]
    except nx.NetworkXNoCycle:
        return None
