"""Graceful degradation: the watchdog's post-mortem diagnostics."""

import json
import os

import pytest

from repro.common.errors import DeadlockError
from repro.faults import FaultInjector, make_plan

from tests.unit.test_watchdog import _all_wf_deadlock_machine


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
