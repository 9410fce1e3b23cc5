"""Graceful degradation: the W+ recovery-storm monitor and the
watchdog's post-mortem diagnostics."""

import json
import os

import pytest

from repro.common.errors import DeadlockError
from repro.common.params import FenceDesign, FenceFlavour, FenceRole
from repro.faults import FaultInjector, make_plan
from repro.sim.machine import Machine

from tests.support import tiny_params
from tests.unit.test_watchdog import _all_wf_deadlock_machine

STORM = dict(wplus_storm_k=3, wplus_storm_window_cycles=1_000,
             wplus_storm_cooldown_cycles=5_000)


def _wplus_machine(**over):
    return Machine(tiny_params(design=FenceDesign.W_PLUS, num_cores=2,
                               **over))


# ----------------------------------------------------------------------
# storm monitor unit behaviour (driven directly through the policy)
# ----------------------------------------------------------------------

def test_k_recoveries_in_window_demote_wf_to_sf():
    m = _wplus_machine(**STORM)
    pol = m.cores[0].policy
    for t in (100, 200, 300):
        m.queue.schedule(t, pol.on_recovery, "test.recovery")
    m.queue.run(until=400)
    assert m.stats.storm_demotions[0] == 1
    assert m.stats.storm_demotions[1] == 0  # per-core, not global
    assert pol.flavour(FenceRole.CRITICAL) is FenceFlavour.SF


def test_recoveries_outside_window_do_not_demote():
    m = _wplus_machine(**STORM)
    pol = m.cores[0].policy
    for t in (100, 1_500, 3_000):  # spaced wider than the window
        m.queue.schedule(t, pol.on_recovery, "test.recovery")
    m.queue.run(until=4_000)
    assert m.stats.storm_demotions[0] == 0
    assert pol.flavour(FenceRole.CRITICAL) is FenceFlavour.WF


def test_demotion_expires_after_cooldown():
    m = _wplus_machine(**STORM)
    pol = m.cores[0].policy
    for t in (100, 200, 300):
        m.queue.schedule(t, pol.on_recovery, "test.recovery")
    # an idle tick past the cooldown advances the queue clock there
    end = 300 + STORM["wplus_storm_cooldown_cycles"] + 100
    m.queue.schedule(end, lambda: None, "test.tick")
    m.queue.run(until=end + 1)
    # the queue clock is now past demoted_until: wfs are wfs again
    assert pol.flavour(FenceRole.CRITICAL) is FenceFlavour.WF
    assert m.stats.storm_demotions[0] == 1


def test_monitor_off_by_default():
    m = _wplus_machine()  # wplus_storm_k defaults to 0
    pol = m.cores[0].policy
    for t in (100, 110, 120, 130):
        m.queue.schedule(t, pol.on_recovery, "test.recovery")
    m.queue.run(until=200)
    assert m.stats.storm_demotions == [0, 0]
    assert pol.flavour(FenceRole.CRITICAL) is FenceFlavour.WF


# ----------------------------------------------------------------------
# storm monitor end to end
# ----------------------------------------------------------------------

def _storm_collision_machine():
    """The Fig. 3a all-wf collision with a hair-trigger storm monitor
    (demote after the very first recovery)."""
    import dataclasses

    m = _all_wf_deadlock_machine(recovery=True)
    # _all_wf_deadlock_machine pins its own params; graft the storm
    # knobs on (the monitor reads them per recovery, nothing is cached)
    params = dataclasses.replace(m.params, wplus_storm_k=1,
                                 wplus_storm_window_cycles=20_000,
                                 wplus_storm_cooldown_cycles=20_000)
    m.params = params
    for core in m.cores:
        core.params = params
    return m


def test_real_recovery_feeds_the_monitor_and_demotes():
    """The Fig. 3a collision with a hair-trigger monitor: the first
    rollback demotes, the re-executed fence runs as an sf, and the
    machine completes without thrashing."""
    m = _storm_collision_machine()
    result = m.run()
    assert result.completed
    assert m.stats.wplus_recoveries >= 1
    assert sum(m.stats.storm_demotions) >= 1


def test_baseline_run_records_no_demotions():
    m = _all_wf_deadlock_machine(recovery=True)
    result = m.run()
    assert result.completed
    assert m.stats.wplus_recoveries >= 1
    assert sum(m.stats.storm_demotions) == 0


def test_chaos_recovery_storm_scenario_demotes_somewhere():
    """The built-in recovery_storm scenario (storm monitor enabled via
    params_overrides) produces at least one demotion across seeds."""
    from repro.faults.chaos import run_chaos_case

    total = 0
    for seed in range(1, 40):
        case = run_chaos_case("recovery_storm", FenceDesign.W_PLUS, seed)
        assert not case.violations, case.violations
        total += case.storm_demotions
    assert total >= 1


# ----------------------------------------------------------------------
# cutoff_in_recovery x storm demotion: stats stay consistent
# ----------------------------------------------------------------------

def test_cutoff_in_recovery_and_demotion_flags_are_consistent():
    """A budget cutoff inside the recovery drain of a storm-demoted
    core must leave BOTH markers visible and coherent in to_dict()."""
    full = _storm_collision_machine().run()
    assert full.completed
    flagged = False
    for budget in range(10, full.cycles + 1, 10):
        m = _storm_collision_machine()
        result = m.run(max_cycles=budget)
        d = m.stats.to_dict()
        assert d["cutoff_in_recovery"] == m.stats.cutoff_in_recovery
        assert d["storm_demotions"] == list(m.stats.storm_demotions)
        if m.stats.cutoff_in_recovery:
            assert not result.completed
            # the demotion happens at rollback start, before the drain
            # window the cutoff landed in — it must already be recorded
            assert sum(m.stats.storm_demotions) >= 1
            flagged = True
    assert flagged, "no budget landed inside the recovery drain"


# ----------------------------------------------------------------------
# watchdog post-mortem diagnostics
# ----------------------------------------------------------------------

def test_deadlock_error_carries_a_diagnostic_bundle():
    m = _all_wf_deadlock_machine(recovery=False)
    with pytest.raises(DeadlockError) as exc:
        m.run()
    diag = exc.value.diagnostics
    assert diag is not None
    assert sorted(diag["blocked_cores"]) == [0, 1]
    assert diag["design"] == "W+"
    assert diag["cycle"] == m.queue.now
    by_core = {c["core"]: c for c in diag["cores"]}
    for cid in (0, 1):
        assert by_core[cid]["blocked"]
        # the collision leaves each core a bouncing store and a BS line
        assert any(e["bouncing"] for e in by_core[cid]["wb"])
        assert by_core[cid]["bs_lines"]
        assert by_core[cid]["pending_fences"]
    # the bounce-retry timers of the deadlocked stores are in flight
    assert any("store_retry" in e["label"]
               for e in diag["in_flight_events"])
    assert exc.value.diagnostics_path is None  # no diag_dir configured


def test_diag_dir_writes_a_json_artifact(tmp_path):
    m = _all_wf_deadlock_machine(recovery=False)
    m.diag_dir = str(tmp_path / "diag")
    with pytest.raises(DeadlockError) as exc:
        m.run()
    path = exc.value.diagnostics_path
    assert path is not None and os.path.exists(path)
    with open(path) as fh:
        on_disk = json.load(fh)
    assert on_disk["blocked_cores"] == list(exc.value.blocked_cores)
    assert on_disk["cores"] == exc.value.diagnostics["cores"]


def test_bundle_includes_trace_tail_and_fault_plan(tmp_path):
    from repro.obs.tracer import Tracer

    m = _all_wf_deadlock_machine(recovery=False)
    m.attach_tracer(Tracer())
    m.attach_faults(FaultInjector(make_plan("noc_jitter", 3)))
    with pytest.raises(DeadlockError) as exc:
        m.run()
    diag = exc.value.diagnostics
    assert diag["trace_tail"], "tracer attached but no tail captured"
    assert diag["faults"]["plan"]["scenario"] == "noc_jitter"
    assert "consulted" in diag["faults"]["summary"]


def test_no_artifact_written_without_diag_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any stray writes would land here
    m = _all_wf_deadlock_machine(recovery=False)
    with pytest.raises(DeadlockError):
        m.run()
    assert os.listdir(tmp_path) == []
