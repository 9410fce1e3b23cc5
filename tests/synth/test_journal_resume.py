"""Synthesis resume: the farm store is the per-design journal.

A synthesis interrupted before its last design's row reached the store
re-runs only that design and reports exactly what the uninterrupted
run reported.
"""

import json
import sqlite3

import pytest

from repro.common.params import FenceDesign
from repro.farm.clients import farm_synthesis, synth_campaign
from repro.synth import engine
from repro.synth.engine import SynthConfig

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
            {"placement": f"[{design.value}]", "rank": 1}],
        "site_probes": {}, "baseline_cycles": 100, "failure": None,
    }


@pytest.fixture
def fake_synth(monkeypatch):
    """Replace the per-design search with an instant fake; records
    which designs actually 'ran'."""
    ran = []

    def fake(design, stripped, sites, config, deadline):
        ran.append(design.value)
        return _fake_entry(design), 7, 0

    monkeypatch.setattr(engine, "_synth_one_design", fake)
    return ran


def _synth(config, db):
    return farm_synthesis(config, db=db, workers=0)


def _kill_before_last_design(config, db):
    """Leave *db* as a run killed while its last design was leased: that
    design's row is gone and its lease has lapsed back to pending."""
    key = synth_campaign(config).expand()[-1].content_key()
    with sqlite3.connect(db) as conn:
        assert conn.execute("DELETE FROM results WHERE key=?",
                            (key,)).rowcount == 1
        conn.execute("UPDATE jobs SET state='pending' WHERE key=?", (key,))
    conn.close()


def test_resume_replays_finished_designs(tmp_path, fake_synth):
    db = str(tmp_path / "farm.sqlite")
    full = _synth(_config(), db)
    # the farm claims jobs in key order, not design order
    assert sorted(fake_synth) == sorted(d.value for d in DESIGNS)

    _kill_before_last_design(_config(), db)
    fake_synth.clear()
    resumed = _synth(_config(), db)
    assert fake_synth == [FenceDesign.W_PLUS.value]  # only the missing one
    assert resumed.designs == full.designs
    assert resumed.total_runs == full.total_runs == 21


def test_real_synthesis_resume_is_bit_identical(tmp_path):
    """End-to-end (no fakes): a resumed synthesis report equals the
    uninterrupted one, byte for byte."""
    db = str(tmp_path / "farm.sqlite")
    config = _config(designs=(FenceDesign.S_PLUS, FenceDesign.SW_PLUS))
    full = _synth(config, db)
    _kill_before_last_design(config, db)  # killed after design 1
    resumed = _synth(config, db)
    assert (json.dumps(resumed.to_dict(), sort_keys=True)
            == json.dumps(full.to_dict(), sort_keys=True))
