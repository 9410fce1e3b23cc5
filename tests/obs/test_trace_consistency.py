"""Trace <-> stats reconciliation: the tracer's consistency contract.

Every hook fires at the same site that bumps the corresponding
``MachineStats`` counter, so episode counts derived from a trace must
reconcile **exactly** with the stats of the same run — that is what
makes a surprising aggregate (``bounces``, ``wplus_recoveries``)
traceable back to the schedule that produced it.

All runs are pinned (fib, 4 cores, scale 0.2, seed 12345) so these are
deterministic, and the same fixture run feeds every assertion.
"""

import pytest

from repro.common.params import FenceDesign
from repro.obs import Observability
from repro.sanitizer.core import sanitize_mode
from repro.workloads.base import load_all_workloads, run_workload

DESIGNS = (
    FenceDesign.S_PLUS,
    FenceDesign.WS_PLUS,
    FenceDesign.SW_PLUS,
    FenceDesign.W_PLUS,
    FenceDesign.WEE,
)


def _traced(design, workload="fib", **kw):
    load_all_workloads()
    obs = Observability()
    kw.setdefault("sanitize", sanitize_mode())
    run = run_workload(workload, design, num_cores=4, scale=0.2,
                       seed=12345, obs=obs, **kw)
    return run, obs


@pytest.fixture(scope="module", params=DESIGNS, ids=lambda d: str(d))
def traced_run(request):
    run, obs = _traced(request.param)
    assert run.result.completed, "pinned fib run must complete"
    return run, obs.tracer


def _converted_wfs(tracer):
    return sum(1 for ev in tracer.spans("wf")
               if ev.args and ev.args.get("converted"))


def test_fence_episodes_reconcile(traced_run):
    run, tracer = traced_run
    stats = run.stats
    converted = _converted_wfs(tracer)
    # a Wee dynamic conversion is re-counted as an sf but traced as its
    # original wf span (marked converted=True); demotions at retirement
    # are sf spans with demoted=True
    assert len(tracer.spans("sf")) + converted == stats.total_sf
    assert len(tracer.spans("wf")) - converted == stats.total_wf


def test_bounce_machinery_reconciles(traced_run):
    run, tracer = traced_run
    stats = run.stats
    assert len(tracer.instants("bounce", cat="dir")) == stats.bounces
    chains = tracer.spans("bounce_chain")
    assert len(chains) == stats.bounced_writes
    chain_retries = sum(ev.args["retries"] for ev in chains)
    rmw_retries = len(tracer.instants("rmw_retry"))
    assert chain_retries + rmw_retries == stats.write_retries


def test_order_operations_reconcile(traced_run):
    run, tracer = traced_run
    stats = run.stats
    assert len(tracer.instants("order")) == stats.order_ops
    assert len(tracer.instants("cond_order")) == stats.cond_order_ops
    assert len(tracer.instants("co_fail")) == stats.cond_order_failures


def test_recovery_timeline_reconciles(traced_run):
    run, tracer = traced_run
    stats = run.stats
    assert len(tracer.spans("recovery")) == stats.wplus_recoveries
    assert len(tracer.instants("wplus_timeout")) == stats.wplus_timeouts


def test_memory_system_reconciles(traced_run):
    run, tracer = traced_run
    stats = run.stats
    assert (len(tracer.spans("dir_txn")) + len(tracer.instants("putm"))
            == stats.coherence_transactions)
    # completed runs quiesce, so every miss round trip closed
    assert len(tracer.spans("l1_miss")) == stats.l1_misses
    # (no writeback==dirty_writebacks equality: the stat also counts
    # dirty data carried on INV_ACKs, which have no L1 PutM issue)


def test_completed_run_has_no_open_or_incomplete_spans(traced_run):
    _, tracer = traced_run
    assert not any(ev.open for ev in tracer.events)
    assert not any(ev.args and ev.args.get("incomplete")
                   for ev in tracer.events)
    assert tracer.dropped == 0


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: str(d))
def test_tracing_does_not_perturb_the_simulation(design):
    """Attaching the tracer must leave the run bit-identical."""
    load_all_workloads()
    plain = run_workload("fib", design, num_cores=4, scale=0.2, seed=12345,
                         sanitize=sanitize_mode())
    traced, _ = _traced(design)
    assert traced.stats.to_dict() == plain.stats.to_dict()
    assert traced.cycles == plain.cycles


def test_wee_demotions_and_conversions_are_visible():
    """Wee's Table-4 accounting: demoted-at-retirement fences appear as
    sf spans with demoted=True; dynamic conversions stay wf spans with
    converted=True; together they equal wee_sf_conversions."""
    run, obs = _traced(FenceDesign.WEE)
    tracer = obs.tracer
    demoted = [ev for ev in tracer.spans("sf")
               if ev.args and ev.args.get("demoted")]
    converted = _converted_wfs(tracer)
    assert len(demoted) + converted == sum(run.stats.wee_sf_conversions)


def test_cutoff_run_marks_incomplete_episodes():
    """A cycle-budget cutoff must close open spans as incomplete, not
    lose them."""
    from repro.common.params import MachineParams
    from repro.sim.machine import Machine
    from repro.workloads.base import REGISTRY

    load_all_workloads()
    workload = REGISTRY["fib"](scale=0.2)
    params = MachineParams().with_cores(4).with_design(FenceDesign.W_PLUS)
    machine = Machine(params, seed=12345)
    obs = Observability().attach(machine)
    workload.setup(machine)
    result = machine.run(max_cycles=800)
    assert not result.completed
    tracer = obs.tracer
    assert not any(ev.open for ev in tracer.events)
    assert any(ev.args and ev.args.get("incomplete")
               for ev in tracer.events), "cutoff left no open episode?"
