"""A PutM names the grant it answers.

Regressions for the stale-PutM ABA: a core evicts a dirty line, the NoC
delays its PutM, and the same core re-acquires the line before the PutM
lands.  A bank that judged staleness by ``owner != requester`` accepted
that PutM and cleared the owner the core had just been granted, leaving
an L1 in M that its home bank no longer tracked (the strict sanitizer's
``dir-lost-sharer``).  Each case is pinned by decision-map keys, which
name the messages its delays hit: a protocol change that adds or removes
an earlier message then fails the case instead of letting it pass
without reaching the race at all.
"""

import pytest

from repro.common.params import FenceDesign, MachineParams
from repro.faults import FaultInjector, make_plan
from repro.sanitizer import Sanitizer
from repro.sim.machine import Machine
from repro.verify.generator import generate_program
from repro.verify.oracles import check_invariants, run_program
from repro.verify.perturb import SchedulePoint
from repro.workloads.base import REGISTRY, load_all_workloads

#: a 2-line direct-mapped L1: eviction puts PutM races in litmus reach
TINY_L1 = {"l1_size_bytes": 64, "l1_ways": 1}


def _tiny_l1_run(seed, design, decisions=None):
    injector = FaultInjector(make_plan("noc_jitter", seed),
                             decisions=decisions)
    run = run_program(generate_program(seed), design,
                      point=SchedulePoint(seed=seed), faults=injector,
                      params_overrides=TINY_L1, sanitize="strict")
    return run, injector


def test_one_delayed_putm_no_longer_loses_the_owner():
    delayed = {("noc", 0, 2, "PutM", 0x10060, 0): 37}
    run, injector = _tiny_l1_run(5, FenceDesign.S_PLUS, decisions=delayed)
    assert injector.decisions == delayed
    assert run.sanitizer is None
    assert check_invariants(run) == []


#: (seed, design, the delayed PutM its ddmin subset ends with: core,
#: home bank, line) — every tiny-L1 ``noc_jitter`` cell of seeds 1-400 x
#: the paper designs that tripped ``dir-lost-sharer`` before the fix
TINY_L1_CELLS = [
    (5, FenceDesign.S_PLUS, 0, 2, 0x10060),
    (5, FenceDesign.WS_PLUS, 0, 2, 0x10060),
    (5, FenceDesign.SW_PLUS, 0, 2, 0x10060),
    (362, FenceDesign.W_PLUS, 3, 0, 0x10000),
    (362, FenceDesign.WEE, 3, 0, 0x10000),
    (365, FenceDesign.WEE, 0, 2, 0x10000),
]


@pytest.mark.parametrize("seed,design,core,bank,line", TINY_L1_CELLS,
                         ids=[f"{s}-{d.value}" for s, d, *_ in TINY_L1_CELLS])
def test_tiny_l1_jitter_cell_is_strict_clean(seed, design, core, bank, line):
    run, injector = _tiny_l1_run(seed, design)
    assert ("noc", core, bank, "PutM", line, 0) in injector.decisions
    assert run.sanitizer is None
    assert check_invariants(run) == []


def _tree_run(decisions):
    """Tree at scale 0.2 on 8 cores under S+ with ``noc_jitter`` seed 2."""
    load_all_workloads()
    workload = REGISTRY["Tree"](scale=0.2)
    params = MachineParams().with_cores(8).with_design(FenceDesign.S_PLUS)
    machine = Machine(params, seed=2)
    injector = FaultInjector(make_plan("noc_jitter", 2),
                             decisions=decisions)
    machine.attach_faults(injector)
    machine.attach_sanitizer(Sanitizer(mode="strict"))
    try:
        workload.setup(machine)
        result = machine.run(max_cycles=workload.cycle_budget)
        workload.check(machine)
    finally:
        machine.dispose()
    return result, injector, workload.cycle_budget


def test_tree_two_delay_case_keeps_the_owner():
    # ddmin of the unrestricted case: the grant's Data reply to core 0
    # and core 0's own PutM of the line it evicts, both held up
    delayed = {("noc", 0, 0, "Data", 0x19000, 1): 29,
               ("noc", 0, 0, "PutM", 0x1d000, 0): 20}
    result, injector, budget = _tree_run(delayed)
    assert injector.decisions == delayed
    # ustm runs are time-bounded: the strict sanitizer saw the whole
    # budget (the lost owner tripped it at cycle 12 160)
    assert result.cycles == budget
