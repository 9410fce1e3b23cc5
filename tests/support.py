"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import signal
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


def delayed_mp():
    """The named ``mp`` program with a consumer that computes for 300
    cycles before it reads.  A consumer that loads at once reads
    flag = 0 on every design, which would make the data check vacuous;
    this one observes the publication (flag = 1, data = 42)."""
    from repro.core import isa as ops
    from repro.synth.programs import mp

    program = mp()
    producer, consumer = program.threads
    return program.with_threads(
        (producer, (ops.Compute(300),) + consumer))


def run_litmus(program, design, seed=1, **kwargs):
    """``run_program`` at the default timing with machine seed *seed*,
    under the suite's sanitizer mode (strict in ``tier1-sanitize``)."""
    from repro.sanitizer.core import sanitize_mode
    from repro.verify.oracles import run_program
    from repro.verify.perturb import SchedulePoint

    return run_program(program, design, SchedulePoint(seed=seed),
                       sanitize=sanitize_mode(), **kwargs)


def loads_of(run, tid: int):
    """The values thread *tid*'s loads read, in program order."""
    return [value for (t, _idx), value in sorted(run.observed.items())
            if t == tid]


def outcome(run):
    """The value each thread's single load read, as a tuple."""
    return tuple(value for _key, value in sorted(run.observed.items()))


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


@contextlib.contextmanager
def deadline(secs=60):
    """Fail a command that hangs instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {secs} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(secs)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
