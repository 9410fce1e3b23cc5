"""``repro synth`` is a farm campaign: one ``synth`` job per design.

The farm store is synthesis's checkpoint.  A synthesis killed after its
first design re-runs only the other designs and prints a byte-identical
report; an identical re-run simulates nothing; a design-superset re-run
simulates only the new designs.  A job's content key covers the whole
config and the wall/RSS budget, so neither can be served a row made
under another.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.common.params import FenceDesign
from repro.farm import worker as worker_mod
from repro.farm.clients import synth_campaign
from repro.farm.store import FarmStore
from repro.sim.governor import RunBudget
from repro.synth import SynthConfig, run_synthesis

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SB3 = ["synth", "--program", "sb", "--designs", "S+,WS+,W+"]


@pytest.fixture(autouse=True)
def _pinned_env(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_REV", "synth-farm-rev")
    for var in ("REPRO_FARM_DB", "REPRO_MAX_WALL_SECS", "REPRO_MAX_RSS_MB"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def executed(monkeypatch):
    """The design of every job a worker in this process executes."""
    ran = []
    real = worker_mod.execute_job
    monkeypatch.setattr(worker_mod, "execute_job",
                        lambda job, diag_dir=None: ran.append(job.design)
                        or real(job, diag_dir))
    return ran


def _synth(capsys, out, *argv):
    """``repro synth *argv --out out``: (exit code, stdout with the
    report path masked, report bytes)."""
    code = main([*argv, "--out", str(out)])
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    return code, stdout, out.read_bytes()


_DRIVER = textwrap.dedent("""
    import os, sys
    from repro.cli import main
    from repro.farm.store import FarmStore

    orig = FarmStore.complete

    def kamikaze_complete(self, *args):
        status = orig(self, *args)
        # one design's row is in the store: die exactly like an OOM kill
        os.kill(os.getpid(), 9)
        return status

    FarmStore.complete = kamikaze_complete
    main(sys.argv[1:])
""")


def test_sigkilled_synthesis_resumes_to_a_byte_identical_report(
        tmp_path, capsys, executed):
    db = str(tmp_path / "farm.sqlite")
    argv = [*SB3, "--farm-db", db, "--farm-workers", "0"]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *argv, "--out", "-"],
        env=env, cwd=REPO, capture_output=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL

    resumed = _synth(capsys, tmp_path / "resumed.json", *argv)
    # only the two designs the killed run left undone
    assert len(executed) == len(set(executed)) == 2
    clean = _synth(capsys, tmp_path / "clean.json", *SB3,
                   "--farm-db", str(tmp_path / "clean.sqlite"),
                   "--farm-workers", "2")
    assert resumed == clean  # exit code, printed table, report bytes
    assert resumed[0] == 0


def test_reruns_execute_only_what_the_store_lacks(tmp_path, capsys,
                                                  executed):
    store = ["--points", "4", "--farm-db", str(tmp_path / "farm.sqlite"),
             "--farm-workers", "0"]
    first = _synth(capsys, tmp_path / "a.json", "synth", "--designs", "S+",
                   *store)
    assert executed == ["S_PLUS"]
    again = _synth(capsys, tmp_path / "b.json", "synth", "--designs", "S+",
                   *store)
    assert executed == ["S_PLUS"]  # served from the store
    assert again == first
    superset = _synth(capsys, tmp_path / "c.json", "synth", "--designs",
                      "S+,W+", *store)
    assert executed == ["S_PLUS", "W_PLUS"]  # only the new design
    fresh = _synth(capsys, tmp_path / "d.json", "synth", "--designs",
                   "S+,W+", "--points", "4", "--farm-workers", "0")
    assert superset == fresh


def _keys(config, budget=None):
    return {job.content_key()
            for job in synth_campaign(config, budget).expand()}


def test_budget_and_points_are_part_of_every_job_key(monkeypatch):
    config = SynthConfig(program="sb", seed=1,
                         designs=(FenceDesign.S_PLUS, FenceDesign.W_PLUS))
    base = _keys(config)
    assert len(base) == 2 and _keys(config) == base
    for other in (_keys(config, RunBudget(max_wall_secs=300.0)),
                  _keys(config, RunBudget(max_rss_mb=512.0)),
                  _keys(dataclasses.replace(config, num_points=4))):
        assert other.isdisjoint(base)
    # an inherited budget is one too
    monkeypatch.setenv("REPRO_MAX_WALL_SECS", "300")
    assert _keys(config) == _keys(config, RunBudget(max_wall_secs=300.0))


def test_farm_submit_kind_synth_stores_the_direct_entry(tmp_path):
    db = str(tmp_path / "farm.sqlite")
    assert main(["farm", "submit", "--db", db, "--kind", "synth",
                 "--workloads", "sb", "--designs", "S+", "--seeds", "1",
                 "--seed-base", "1", "--run", "--workers", "0"]) == 0
    with FarmStore(db) as store:
        ((cid, _),) = store.campaigns()
        (row,) = store.rows(cid).values()
    direct = run_synthesis(SynthConfig(
        program="sb", designs=(FenceDesign.S_PLUS,), seed=1))
    assert row["entry"] == direct.designs["S+"]


def test_exit_codes_keep_their_meaning(capsys):
    assert main(["synth", "--program", "nope", "--out", "-"]) == 2
    assert "named programs:" in capsys.readouterr().err
    # a starved verdict budget leaves the design without a placement
    assert main(["synth", "--designs", "S+", "--max-runs", "2",
                 "--farm-workers", "0", "--out", "-"]) == 1
    assert "S+   exhausted-runs" in capsys.readouterr().out
