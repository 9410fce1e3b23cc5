"""Synthesis checkpointing: the per-design JSONL journal, resume after
an interrupted run, and the config-key guard against stale replays."""

import json

import pytest

from repro.common import journal as journal_mod
from repro.common.errors import ConfigError
from repro.common.params import FenceDesign
from repro.synth import engine
from repro.synth.engine import SynthConfig, run_synthesis

DESIGNS = (FenceDesign.S_PLUS, FenceDesign.WS_PLUS, FenceDesign.W_PLUS)


def _config(designs=DESIGNS, **kw):
    kw.setdefault("num_points", 2)
    return SynthConfig(program="sb", designs=designs, seed=1,
                       max_runs=400, audit=False, **kw)


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


def test_journal_checkpoints_each_design(tmp_path, fake_synth):
    journal = str(tmp_path / "synth.jsonl")
    report = run_synthesis(_config(), journal=journal)
    recs = list(journal_mod.iter_records(journal))
    assert [r["design"] for r in recs] == [d.value for d in DESIGNS]
    assert all(r["checkpoint_key"] == _config().checkpoint_key()
               for r in recs)
    assert report.total_runs == 21


def test_resume_replays_finished_designs(tmp_path, fake_synth):
    journal = str(tmp_path / "synth.jsonl")
    full = run_synthesis(_config(), journal=journal)
    assert fake_synth == [d.value for d in DESIGNS]

    # drop the last checkpoint, as if killed before design 3 finished
    lines = open(journal).readlines()
    with open(journal, "w") as fh:
        fh.writelines(lines[:2])
        fh.write('{"design": "W+", "entry"')  # torn mid-append
    fake_synth.clear()
    resumed = run_synthesis(_config(), journal=journal, resume=True)
    assert fake_synth == [FenceDesign.W_PLUS.value]  # only the missing one
    assert resumed.designs == full.designs
    assert resumed.total_runs == full.total_runs


def test_resume_ignores_checkpoints_from_another_config(tmp_path,
                                                        fake_synth):
    journal = str(tmp_path / "synth.jsonl")
    run_synthesis(_config(num_points=2), journal=journal)
    fake_synth.clear()
    # same journal, different search config: nothing may be replayed
    other = _config(num_points=3)
    run_synthesis(other, journal=journal, resume=True)
    assert fake_synth == [d.value for d in DESIGNS]


def test_resume_retries_exhausted_designs(tmp_path, fake_synth):
    journal = str(tmp_path / "synth.jsonl")
    config = _config(designs=(FenceDesign.S_PLUS,))
    with journal_mod.JournalWriter(journal) as writer:
        writer.append({
            "design": "S+", "checkpoint_key": config.checkpoint_key(),
            "entry": {"status": "exhausted-wall", "strategy": None,
                      "placements": [], "site_probes": {},
                      "baseline_cycles": None, "failure": None},
            "runs": 0,
        })
    run_synthesis(config, journal=journal, resume=True)
    assert fake_synth == ["S+"]  # exhausted checkpoints are re-searched


def test_existing_journal_without_resume_is_refused(tmp_path, fake_synth):
    journal = str(tmp_path / "synth.jsonl")
    run_synthesis(_config(), journal=journal)
    with pytest.raises(ConfigError, match="already exists"):
        run_synthesis(_config(), journal=journal)
    before = open(journal).read()
    run_synthesis(_config(), journal=journal, overwrite_journal=True)
    assert open(journal + ".bak").read() == before


def test_checkpoint_key_ignores_design_list():
    """The per-design checkpoint must be reusable when only the design
    selection changes — designs are keyed per record, not per config."""
    a = _config(designs=(FenceDesign.S_PLUS,))
    b = _config(designs=DESIGNS)
    c = _config(designs=DESIGNS, num_points=9)
    assert a.checkpoint_key() == b.checkpoint_key()
    assert a.checkpoint_key() != c.checkpoint_key()


def test_real_synthesis_resume_is_bit_identical(tmp_path):
    """End-to-end (no fakes): a resumed synthesis report equals the
    uninterrupted one, byte for byte."""
    journal = str(tmp_path / "synth.jsonl")
    config = _config(designs=(FenceDesign.S_PLUS, FenceDesign.SW_PLUS))
    full = run_synthesis(config, journal=journal)
    lines = open(journal).readlines()
    assert len(lines) == 2
    with open(journal, "w") as fh:  # killed after design 1
        fh.write(lines[0])
    resumed = run_synthesis(config, journal=journal, resume=True)
    assert (json.dumps(resumed.to_dict(), sort_keys=True)
            == json.dumps(full.to_dict(), sort_keys=True))
