"""The farm chaos battery: the robustness contract, end to end.

A 3-design × 2-workload × 10-seed campaign (60 jobs) must survive
workers SIGKILLed mid-job, a coordinator crash with a cold restart,
and orphaned duplicate executions — and still produce exactly the
result rows a clean inline sweep produces, each exactly once.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.common.params import FenceDesign
from repro.farm import campaign as campaign_mod
from repro.farm import worker as worker_mod
from repro.farm.campaign import run_campaign
from repro.farm.pool import WorkerPool
from repro.farm.spec import CampaignSpec
from repro.farm.store import FarmStore
from repro.farm.worker import FarmConfig
from tests.support import deadline

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: the battery grid: 3 designs x 2 workloads x 10 seeds = 60 jobs
BATTERY_DESIGNS = [FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
                   FenceDesign.W_PLUS]
BATTERY_WORKLOADS = ["fib", "Counter"]
BATTERY_SEEDS = list(range(1, 11))


@pytest.fixture(autouse=True)
def _pinned_rev(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_REV", "battery-rev")
    monkeypatch.delenv("REPRO_FARM_DB", raising=False)


def _fast_polls(monkeypatch):
    """Workers and the coordinator both look every 0.02 s."""
    monkeypatch.setattr(worker_mod, "IDLE_SECS", 0.02)
    monkeypatch.setattr(campaign_mod, "SUPERVISE_SECS", 0.02)


def _battery_spec():
    return CampaignSpec.make(
        "matrix", BATTERY_WORKLOADS, BATTERY_DESIGNS,
        seeds=BATTERY_SEEDS, core_counts=[2], scale=0.04)


class _CoordinatorCrash(Exception):
    pass


def _lease_holder(store, pool):
    """A live pool worker holding a lease right now, if any: killing it
    holds its job back a full lease, however fast the rest drains."""
    owners = {owner for (owner,) in store._conn.execute(
        "SELECT lease_owner FROM jobs WHERE state='leased'")}
    return next((proc for proc in pool.procs
                 if proc.name in owners and proc.is_alive()), None)


def test_battery_survives_kills_and_coordinator_restart(tmp_path,
                                                       monkeypatch):
    """Workers are SIGKILLed throughout; the coordinator itself dies
    mid-campaign and is restarted cold.  The surviving farm must
    converge to the clean sweep's rows, exactly once each."""
    spec = _battery_spec()
    clean = run_campaign(str(tmp_path / "clean.sqlite"), spec, workers=0)
    assert len(clean) == 60

    db = str(tmp_path / "farm.sqlite")
    _fast_polls(monkeypatch)
    cfg = FarmConfig(lease_secs=1.0, quarantine_after=10)
    chaos = {"polls": 0, "kills": 0, "respawns_seen": 0}
    real_wait = WorkerPool.wait

    def killer(crash_at):
        # runs at each of the coordinator's looks, before its wait
        def wait(pool, timeout):
            chaos["polls"] += 1
            chaos["respawns_seen"] = max(chaos["respawns_seen"],
                                         pool.respawns)
            # the first kill as soon as a job is leased, then one every
            # ten polls: a campaign that drains before its first kill
            # would dodge the crash below
            if not chaos["kills"] or chaos["polls"] % 10 == 0:
                victim = _lease_holder(watcher, pool)
                if victim is not None:
                    os.kill(victim.pid, signal.SIGKILL)
                    chaos["kills"] += 1
            if crash_at is not None and chaos["polls"] >= crash_at:
                raise _CoordinatorCrash("coordinator dies mid-campaign")
            real_wait(pool, timeout)
        return wait

    with FarmStore(db) as watcher:
        monkeypatch.setattr(WorkerPool, "wait", killer(crash_at=25))
        with deadline(600), pytest.raises(_CoordinatorCrash):
            run_campaign(db, spec, workers=2, config=cfg)
        st = watcher.status(spec.campaign_id())
        assert not watcher.campaign_done(spec.campaign_id())
        assert st["done"] < 60  # it really died mid-flight

        # cold restart: same spec, fresh coordinator, kills keep coming
        monkeypatch.setattr(WorkerPool, "wait", killer(crash_at=None))
        with deadline(600):
            rows = run_campaign(db, spec, workers=2, config=cfg)

    assert chaos["kills"] >= 2  # the chaos actually happened
    assert chaos["respawns_seen"] >= 1  # and the pool self-healed
    # exactly-once, bit-identical: the full clean row set, nothing else
    assert rows == clean
    with FarmStore(db) as store:
        st = store.status(spec.campaign_id())
        assert st["done"] == 60
        assert st["quarantined"] == 0
        assert store.result_count() == 60  # one row per job, ever
        # kills force retries, never row rewrites
        assert st["attempts"] >= 60


_COORDINATOR = textwrap.dedent("""
    import sys
    from repro.common.params import FenceDesign
    from repro.farm import campaign, worker
    from repro.farm.spec import CampaignSpec

    spec = CampaignSpec.make(
        "matrix", ["fib"], [FenceDesign.S_PLUS, FenceDesign.W_PLUS],
        seeds=range(1, 7), core_counts=[2], scale=0.04)
    worker.IDLE_SECS = campaign.SUPERVISE_SECS = 0.02
    campaign.run_campaign(sys.argv[1], spec, workers=2,
                          config=worker.FarmConfig(lease_secs=1.0))
""")


def test_sigkilled_coordinator_resumes_exactly_once(tmp_path, monkeypatch):
    """SIGKILL the whole coordinator process mid-campaign (its workers
    become orphans that may still complete jobs).  A cold in-process
    restart plus the orphans' duplicate completions must still yield
    single bit-identical rows."""
    spec = CampaignSpec.make(
        "matrix", ["fib"], [FenceDesign.S_PLUS, FenceDesign.W_PLUS],
        seeds=range(1, 7), core_counts=[2], scale=0.04)
    clean = run_campaign(str(tmp_path / "clean.sqlite"), spec, workers=0)
    assert len(clean) == 12

    db = str(tmp_path / "farm.sqlite")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
               REPRO_CODE_REV="battery-rev")
    proc = subprocess.Popen([sys.executable, "-c", _COORDINATOR, db],
                            env=env, cwd=REPO)
    # let it claim and start some jobs, then kill it outright
    give_up = time.time() + 60
    started = False
    while time.time() < give_up:
        if os.path.exists(db):
            with FarmStore(db) as store:
                try:
                    st = store.status(spec.campaign_id())
                except Exception:
                    st = {"leased": 0, "done": 0}
            if st["leased"] or st["done"]:
                started = True
                break
        time.sleep(0.02)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    assert started, "coordinator never started claiming jobs"
    assert proc.returncode == -signal.SIGKILL

    _fast_polls(monkeypatch)
    with deadline(600):
        rows = run_campaign(db, spec, workers=2,
                            config=FarmConfig(lease_secs=1.0))
    assert rows == clean
    with FarmStore(db) as store:
        assert store.result_count() == 12  # exactly once, orphans and all


def test_battery_resubmission_is_served_from_cache(tmp_path,
                                                   monkeypatch):
    """After the battery campaign exists, resubmitting the identical
    spec costs zero simulations: every job is a cache hit."""
    from repro.farm import worker as worker_mod

    db = str(tmp_path / "farm.sqlite")
    spec = _battery_spec()
    run_campaign(db, spec, workers=0)

    calls = []
    monkeypatch.setattr(
        worker_mod, "execute_job",
        lambda job, diag_dir=None: calls.append(job) or
        pytest.fail("cache miss: a simulation ran on resubmission"))
    rows = run_campaign(db, spec, workers=0)
    assert calls == []
    assert len(rows) == 60
    with FarmStore(db) as store:
        assert store.result_count() == 60
