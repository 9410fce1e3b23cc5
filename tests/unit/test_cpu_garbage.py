"""The core's continuations are acyclic: a run leaves the cyclic
collector nothing to find.

Loads and RMWs in flight are ``_InFlight`` records whose bound methods
are the continuations; when they were nested closures referring to each
other (``issue`` <-> ``on_bounce``), every RMW left ~13 objects only
``gc`` could free — 3 900-4 200 of them over these ~2 500-3 000-event
runs — and collecting them was 7 % of a sweep's host time.

That is the collector's first half — nothing to find *during* a run.
The second is nothing to find *after* one: a live machine is itself a
cycle (core <-> machine, L1 <-> bank), and ``dispose`` is what cuts it
(``tests/unit/test_teardown.py`` covers the functions that call it).
"""

import gc

import pytest

from repro.common.params import FenceDesign, MachineParams
from repro.sim.machine import Machine
from repro.workloads.base import REGISTRY, load_all_workloads


@pytest.mark.parametrize("design", [FenceDesign.WS_PLUS, FenceDesign.W_PLUS])
def test_a_run_leaves_no_cyclic_garbage(design):
    load_all_workloads()
    workload = REGISTRY["Counter"](scale=0.1)
    params = MachineParams().with_cores(8).with_design(design)
    machine = Machine(params, seed=3)
    workload.setup(machine)
    gc.collect()
    gc.disable()
    try:
        result = machine.run(max_cycles=workload.cycle_budget)
        unreachable = gc.collect()
        machine.dispose()
        after_dispose = gc.collect()
    finally:
        gc.enable()
    # Counter runs for a fixed cycle budget, so it is cut off, not done
    assert not result.degraded and machine.queue.executed > 2000
    assert unreachable < 50
    assert after_dispose == 0
