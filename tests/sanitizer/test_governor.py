"""Resource-governed runs: budgets cut off gracefully, never hang.

A breached budget must unwind through the normal stop path — stats
finalized, watchdog stopped, a ``degraded`` result with the reason —
so a runaway case in a big matrix costs its budget and nothing more.
"""

import pytest

from repro.common.params import FenceDesign
from repro.sanitizer.core import sanitize_mode
from repro.sim.governor import RunBudget
from repro.workloads.base import load_all_workloads, run_workload


def _run(budget=None, **kw):
    load_all_workloads()
    kw.setdefault("num_cores", 4)
    kw.setdefault("scale", 0.5)
    kw.setdefault("seed", 12345)
    kw.setdefault("sanitize", sanitize_mode())
    return run_workload("fib", FenceDesign.S_PLUS, budget=budget, **kw)


def test_event_budget_cuts_off_into_a_degraded_result():
    run = _run(budget=RunBudget(max_events=5_000))
    result = run.result
    assert result.degraded
    assert not result.completed
    assert "event budget exhausted" in result.degraded_reason
    assert result.cycles > 0  # it ran, then stopped — no hard kill


def test_wall_clock_budget_degrades_immediately_at_zero():
    result = _run(budget=RunBudget(max_wall_secs=0.0)).result
    assert result.degraded
    assert "wall" in result.degraded_reason


def test_generous_budget_changes_nothing():
    plain = _run()
    governed = _run(budget=RunBudget(max_events=100_000_000,
                                     max_wall_secs=3_600.0))
    assert governed.result.completed and not governed.result.degraded
    assert governed.stats.to_dict() == plain.stats.to_dict()
    assert governed.cycles == plain.cycles


def test_empty_budget_is_disabled():
    budget = RunBudget()
    assert not budget.enabled
    result = _run(budget=budget).result
    assert result.completed and not result.degraded


def test_runner_reports_a_budget_cutoff_as_a_first_class_outcome():
    """A matrix job reports a degraded run in its RunSummary (and thus
    in its farm result row) instead of hanging or crashing."""
    import dataclasses

    from repro.eval.runner import run_summary

    summary = run_summary("fib", "S_PLUS", 4, 0.5, 12345,
                          budget=RunBudget(max_events=5_000),
                          sanitize=sanitize_mode())
    assert summary.degraded
    assert "event budget exhausted" in summary.degraded_reason
    assert not summary.completed
    row = dataclasses.asdict(summary)
    assert row["degraded"] is True  # the result row carries the outcome


def test_cut_off_run_can_be_rerun_unbudgeted():
    """A budget breach leaves no residue: the same coordinates re-run
    without a budget still complete and match an undisturbed run."""
    _run(budget=RunBudget(max_events=5_000))
    rerun = _run()
    assert rerun.result.completed
    assert rerun.stats.to_dict() == _run().stats.to_dict()
