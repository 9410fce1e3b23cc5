"""Workload registry completeness (paper Table 3)."""

import pytest

from repro.workloads.base import (
    REGISTRY,
    load_all_workloads,
    run_workload,
    workloads_in_group,
)
from repro.common.params import FenceDesign
from repro.sanitizer.core import sanitize_mode


def setup_module():
    load_all_workloads()


def test_all_26_paper_workloads_registered():
    load_all_workloads()
    assert len([c for c in REGISTRY.values() if c.group == "cilk"]) == 10
    assert len([c for c in REGISTRY.values() if c.group == "ustm"]) == 10
    assert len([c for c in REGISTRY.values() if c.group == "stamp"]) == 6


def test_groups_sorted_and_disjoint():
    load_all_workloads()
    cilk = {c.name for c in workloads_in_group("cilk")}
    ustm = {c.name for c in workloads_in_group("ustm")}
    stamp = {c.name for c in workloads_in_group("stamp")}
    assert not (cilk & ustm) and not (ustm & stamp) and not (cilk & stamp)


def test_run_workload_unknown_name():
    load_all_workloads()
    with pytest.raises(KeyError):
        run_workload("nonexistent", FenceDesign.S_PLUS)


def test_ustm_runs_are_budgeted():
    load_all_workloads()
    run = run_workload("Counter", FenceDesign.S_PLUS, num_cores=2,
                       scale=0.05, sanitize=sanitize_mode())
    # the throughput workloads cut off at the cycle budget
    assert run.cycles <= int(0.05 * 120_000) + 20_000
