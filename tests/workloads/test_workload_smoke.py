"""Smoke tests: every registered workload runs, completes and passes
its own invariants under representative fence designs."""

import pytest

from repro.common.params import FenceDesign
from repro.sanitizer.core import sanitize_mode
from repro.workloads.base import REGISTRY, load_all_workloads, run_workload

load_all_workloads()

CILK = sorted(c.name for c in REGISTRY.values() if c.group == "cilk")
USTM = sorted(c.name for c in REGISTRY.values() if c.group == "ustm")
STAMP = sorted(c.name for c in REGISTRY.values() if c.group == "stamp")

SMOKE_DESIGNS = (FenceDesign.S_PLUS, FenceDesign.W_PLUS)


@pytest.mark.parametrize("name", CILK)
@pytest.mark.parametrize("design", SMOKE_DESIGNS)
def test_cilk_smoke(name, design):
    run = run_workload(name, design, num_cores=4, scale=0.12, check=True,
                       sanitize=sanitize_mode())
    assert run.result.completed
    assert run.stats.tasks_executed > 0
    assert run.stats.total_instructions > 0


@pytest.mark.parametrize("name", USTM)
@pytest.mark.parametrize("design", SMOKE_DESIGNS)
def test_ustm_smoke(name, design):
    run = run_workload(name, design, num_cores=4, scale=0.15, check=True,
                       sanitize=sanitize_mode())
    assert run.stats.txn_commits > 0
    assert run.throughput > 0


@pytest.mark.parametrize("name", STAMP)
@pytest.mark.parametrize("design", SMOKE_DESIGNS)
def test_stamp_smoke(name, design):
    run = run_workload(name, design, num_cores=4, scale=0.1, check=True,
                       sanitize=sanitize_mode())
    assert run.result.completed
    assert run.stats.txn_commits > 0


@pytest.mark.parametrize("name", ["fib", "List", "intruder"])
def test_other_designs_smoke(name):
    for design in (FenceDesign.WS_PLUS, FenceDesign.SW_PLUS,
                   FenceDesign.WEE):
        run = run_workload(name, design, num_cores=4, scale=0.1,
                           check=True, sanitize=sanitize_mode())
        assert run.stats.total_instructions > 0


def test_single_core_runs_have_no_fence_collisions():
    run = run_workload("fib", FenceDesign.W_PLUS, num_cores=1, scale=0.1,
                       sanitize=sanitize_mode())
    assert run.stats.bounces == 0
    assert run.stats.wplus_recoveries == 0


def test_scale_changes_work_size():
    small = run_workload("fib", FenceDesign.S_PLUS, num_cores=2, scale=0.06,
                         sanitize=sanitize_mode())
    big = run_workload("fib", FenceDesign.S_PLUS, num_cores=2, scale=0.5,
                       sanitize=sanitize_mode())
    assert big.stats.tasks_executed > small.stats.tasks_executed
