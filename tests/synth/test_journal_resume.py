"""Synthesis resume: the farm store holds one job per synthesis call.

A synthesis interrupted before its job's row reached the store re-runs
that one job — every design again — and reports exactly what the
uninterrupted run reported.  The farm path and a direct
:func:`run_synthesis` call write the same report bytes, and a wall
budget bounds the whole call.
"""

import json
import sqlite3
import time

import pytest

from repro.common.params import FenceDesign
from repro.farm.clients import farm_synthesis, synth_campaign
from repro.sim.governor import RunBudget
from repro.synth import engine
from repro.synth.engine import SynthConfig, run_synthesis

DESIGNS = (FenceDesign.S_PLUS, FenceDesign.WS_PLUS, FenceDesign.W_PLUS)


@pytest.fixture(autouse=True)
def _pinned_env(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_REV", "synth-resume-rev")
    monkeypatch.delenv("REPRO_FARM_DB", raising=False)


def _config(designs=DESIGNS, **kw):
    kw.setdefault("num_points", 2)
    return SynthConfig(program="sb", designs=designs, seed=1,
                       max_runs=400, **kw)


def _fake_entry(design):
    return {
        "status": "ok", "strategy": "fake", "placements": [
            {"placement": f"[{design.value}]", "rank": 1,
             "audit": {"passed": True, "minimal": True}}],
        "site_probes": {}, "baseline_cycles": 100, "failure": None,
    }


@pytest.fixture
def fake_synth(monkeypatch):
    """Replace the per-design search with an instant fake; records
    which designs actually 'ran'."""
    ran = []

    def fake(store, design, stripped, sites, config, deadline):
        ran.append(design.value)
        return _fake_entry(design), 7

    monkeypatch.setattr(engine, "_synth_one_design", fake)
    return ran


def _synth(config, db, budget=None):
    return farm_synthesis(config, budget=budget, db=db, workers=0)


def _bytes(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _kill_inside_the_job(config, db):
    """Leave *db* as a call killed while its job was leased: the job's
    row is gone and its lease has lapsed back to pending."""
    job, = synth_campaign(config).expand()
    key = job.content_key()
    with sqlite3.connect(db) as conn:
        assert conn.execute("DELETE FROM results WHERE key=?",
                            (key,)).rowcount == 1
        conn.execute("UPDATE jobs SET state='pending' WHERE key=?", (key,))
    conn.close()


def test_resume_replays_finished_designs(tmp_path, fake_synth):
    db = str(tmp_path / "farm.sqlite")
    full = _synth(_config(), db)
    assert fake_synth == [d.value for d in DESIGNS]  # one job, in order

    fake_synth.clear()
    assert _synth(_config(), db).designs == full.designs
    assert fake_synth == []  # an identical re-run executes nothing

    _kill_inside_the_job(_config(), db)
    resumed = _synth(_config(), db)
    # the designs finished before the kill ran again, in the one job
    assert fake_synth == [d.value for d in DESIGNS]
    assert list(resumed.designs) == [d.value for d in DESIGNS]
    assert resumed.designs == full.designs
    assert resumed.total_runs == full.total_runs == 21


def test_real_synthesis_resume_is_bit_identical(tmp_path):
    """End-to-end (no fakes): a resumed synthesis report equals the
    uninterrupted one, byte for byte."""
    db = str(tmp_path / "farm.sqlite")
    config = _config(designs=(FenceDesign.S_PLUS, FenceDesign.SW_PLUS))
    full = _synth(config, db)
    _kill_inside_the_job(config, db)
    resumed = _synth(config, db)
    assert _bytes(resumed) == _bytes(full)
    assert resumed.simulated_runs == full.simulated_runs


def test_the_farm_report_equals_a_direct_call(tmp_path):
    config = _config(designs=(FenceDesign.W_PLUS, FenceDesign.S_PLUS,
                              FenceDesign.WS_PLUS))
    farm = _synth(config, str(tmp_path / "farm.sqlite"))
    direct = run_synthesis(config)
    assert farm.to_json() == direct.to_json()
    assert list(farm.designs) == list(direct.designs)
    assert farm.simulated_runs == direct.simulated_runs
    assert farm.total_runs == direct.total_runs


def test_a_breached_wall_budget_leaves_the_later_designs_exhausted(
        tmp_path, fake_synth, monkeypatch):
    fake = engine._synth_one_design

    def slow(*args):
        time.sleep(0.2)  # past the whole call's budget
        return fake(*args)

    monkeypatch.setattr(engine, "_synth_one_design", slow)
    report = _synth(_config(), str(tmp_path / "farm.sqlite"),
                    budget=RunBudget(max_wall_secs=0.1))
    assert fake_synth == [FenceDesign.S_PLUS.value]
    assert [entry["status"] for entry in report.designs.values()] == \
        ["ok", "exhausted-wall", "exhausted-wall"]
    assert not report.ok
