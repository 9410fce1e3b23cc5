"""Campaign semantics: farm sweeps are bit-identical to local ones,
re-submission is free (content-addressed cache), coordinator restarts
resume, and the sweeps' clients round-trip through the farm."""

import dataclasses
import json
import os
import sqlite3
import sys
import threading
import time

import pytest

from repro.common.errors import ConfigError
from repro.common.params import FenceDesign
from repro.farm import campaign as campaign_mod
from repro.farm import worker as worker_mod
from repro.farm.campaign import run_campaign
from repro.farm.spec import CampaignSpec
from repro.farm.store import FarmStore
from repro.farm.worker import FarmConfig, run_worker

DESIGNS = [FenceDesign.S_PLUS, FenceDesign.W_PLUS]
GRID = dict(core_counts=[2], scale=0.06)


@pytest.fixture(autouse=True)
def _pinned_rev(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_REV", "test-rev")
    monkeypatch.delenv("REPRO_FARM_DB", raising=False)


def _spec(workloads=("fib",), designs=DESIGNS, seeds=(5,)):
    return CampaignSpec.make("matrix", workloads, designs, seeds=seeds,
                             **GRID)


# ----------------------------------------------------------------------
# inline campaigns, caching, resume
# ----------------------------------------------------------------------

def test_inline_campaign_produces_every_row(tmp_path):
    db = str(tmp_path / "farm.sqlite")
    spec = _spec(seeds=(5, 6))
    rows = run_campaign(db, spec, workers=0)
    assert len(rows) == 4
    for row in rows.values():
        assert row["completed"] is True
        assert row["num_cores"] == 2


def test_resubmitted_campaign_runs_zero_new_simulations(tmp_path,
                                                        monkeypatch):
    db = str(tmp_path / "farm.sqlite")
    spec = _spec()
    calls = []
    from repro.farm import exec as exec_mod

    real = exec_mod.execute_job

    def counting(spec_, diag_dir=None):
        calls.append(spec_.content_key())
        return real(spec_, diag_dir)

    monkeypatch.setattr(exec_mod, "execute_job", counting)
    monkeypatch.setattr(worker_mod, "execute_job", counting)
    first = run_campaign(db, spec, workers=0)
    assert len(calls) == 2
    again = run_campaign(db, spec, workers=0)
    assert len(calls) == 2  # cache hit: zero new simulations
    assert again == first


def test_cache_spans_campaigns_but_not_code_revisions(tmp_path,
                                                      monkeypatch):
    db = str(tmp_path / "farm.sqlite")
    calls = []
    from repro.farm import exec as exec_mod

    real = exec_mod.execute_job

    def counting(spec_, diag_dir=None):
        calls.append(spec_.content_key())
        return real(spec_, diag_dir)

    monkeypatch.setattr(worker_mod, "execute_job", counting)
    run_campaign(db, _spec(seeds=(5,)), workers=0)
    assert len(calls) == 2
    # a superset campaign only pays for the new seed
    run_campaign(db, _spec(seeds=(5, 6)), workers=0)
    assert len(calls) == 4
    # a new code revision is a different job identity: nothing cached
    monkeypatch.setenv("REPRO_CODE_REV", "other-rev")
    run_campaign(db, _spec(seeds=(5,)), workers=0)
    assert len(calls) == 6


def test_coordinator_restart_resumes_to_identical_rows(tmp_path):
    """Kill the coordinator after two jobs; re-running the identical
    campaign finishes exactly the rest, bit-identically."""
    db = str(tmp_path / "farm.sqlite")
    clean_db = str(tmp_path / "clean.sqlite")
    spec = _spec(seeds=(5, 6))  # 4 jobs
    clean = run_campaign(clean_db, spec, workers=0)

    cid, _ = campaign_mod.submit(db, spec)
    run_worker(db, cid, max_jobs=2)  # "coordinator died" after 2 jobs
    with FarmStore(db) as store:
        assert store.status(cid)["done"] == 2
        assert not store.campaign_done(cid)
    resumed = run_campaign(db, spec, workers=0)  # the restart
    assert resumed == clean
    with FarmStore(db) as store:
        st = store.status(cid)
        assert st["done"] == 4 and st["attempts"] == 4  # no re-runs


def test_worker_pool_campaign_matches_inline_rows(tmp_path):
    db = str(tmp_path / "farm.sqlite")
    inline_db = str(tmp_path / "inline.sqlite")
    spec = _spec(seeds=(5, 6, 7))
    cfg = FarmConfig(lease_secs=10.0, poll_secs=0.02)
    pooled = run_campaign(db, spec, workers=2, config=cfg,
                          poll_secs=0.02, timeout=120)
    inline = run_campaign(inline_db, spec, workers=0)
    assert pooled == inline  # scheduling cannot change the rows


# ----------------------------------------------------------------------
# stalled-but-alive worker: duplicate execution, exactly-once rows
# ----------------------------------------------------------------------

def test_stalled_worker_duplicate_execution_keeps_one_row(tmp_path):
    """w1 claims, stalls past its lease without heartbeating; w2 runs
    the job and completes; then w1 wakes up and completes too.  The
    result store must hold exactly one row, bit-identical no matter
    who wrote it — the deterministic-simulation contract."""
    import time

    from repro.farm.exec import execute_job

    db = str(tmp_path / "farm.sqlite")
    spec = _spec(seeds=(5,), designs=[FenceDesign.S_PLUS])
    with FarmStore(db) as store:
        cid, _ = store.submit_campaign(spec)
        key, job1 = store.claim(cid, "w1", lease_secs=0.0)  # stalls now
        reclaimed = store.claim(cid, "w2", 30.0,
                                now=time.time() + 0.001)
        assert reclaimed is not None and reclaimed[0] == key
        job2 = reclaimed[1]
        assert job1 == job2
        row2 = execute_job(job2)
        assert store.complete(key, cid, "w2", row2) == "inserted"
        row1 = execute_job(job1)  # w1 wakes and finishes anyway
        assert row1 == row2  # deterministic: same spec, same row
        assert store.complete(key, cid, "w1", row1) == "duplicate"
        assert store.rows(cid) == {key: row2}  # single row, bit-identical
        assert store.result_count() == 1
        assert store.duplicates_total() == 1
        assert store.status(cid)["done"] == 1


# ----------------------------------------------------------------------
# poison jobs drain through quarantine, not livelock
# ----------------------------------------------------------------------

def test_poison_job_quarantines_and_campaign_still_finishes(
        tmp_path, monkeypatch):
    db = str(tmp_path / "farm.sqlite")
    diag = tmp_path / "diag"
    spec = _spec(seeds=(5,), designs=DESIGNS)  # 2 jobs
    poison = spec.expand()[0].content_key()
    from repro.farm.exec import execute_job as real

    def sometimes_poisoned(job, diag_dir=None):
        if job.content_key() == poison:
            raise RuntimeError("synthetic poison")
        return real(job, diag_dir)

    monkeypatch.setattr(worker_mod, "execute_job", sometimes_poisoned)
    cid, _ = campaign_mod.submit(db, spec, diag_dir=str(diag))
    cfg = FarmConfig(quarantine_after=3, backoff_base=0.01,
                     diag_dir=str(diag))
    # three distinct workers each hit the poison job (the retry
    # backoff gates each worker off it after one failure)
    import time as time_mod

    for worker in ("w1", "w2", "w3"):
        run_worker(db, cid, config=cfg, worker=worker, once=True)
        time_mod.sleep(0.05)  # let the poison job's backoff expire
    with FarmStore(db) as store:
        assert store.campaign_done(cid)
        st = store.status(cid)
        assert st["quarantined"] == 1 and st["done"] == 1
        (q,) = store.quarantined(cid)
        assert "synthetic poison" in q["last_error"]
        assert set(q["failed_workers"]) == {"w1", "w2", "w3"}
    assert list(diag.glob("quarantine_*.json"))  # the watchdog bundle
    # the collector refuses to pretend the quarantined row exists, and
    # names the error that quarantined it
    from repro.eval.runner import run_matrix

    with pytest.raises(ConfigError,
                       match="1 unproduced.*RuntimeError: synthetic poison"):
        run_matrix(["fib"], DESIGNS, num_cores=2, scale=0.06, seed=5,
                   farm_db=db, farm_workers=0)


# ----------------------------------------------------------------------
# the run_matrix client (its rows are pinned in
# tests/workloads/test_matrix_pinned.py)
# ----------------------------------------------------------------------

def test_run_matrix_honours_farm_db_env(tmp_path, monkeypatch):
    from repro.eval.runner import run_matrix

    db = str(tmp_path / "farm.sqlite")
    monkeypatch.setenv("REPRO_FARM_DB", db)
    monkeypatch.setenv("REPRO_FARM_WORKERS", "0")
    rows = run_matrix(["fib"], [FenceDesign.S_PLUS], num_cores=2,
                      scale=0.06, seed=5)
    assert os.path.exists(db)
    assert len(rows) == 1


# ----------------------------------------------------------------------
# the chaos and perf clients
# ----------------------------------------------------------------------

def test_farm_chaos_matrix_matches_local(tmp_path):
    from repro.faults.chaos import run_chaos_matrix

    db = str(tmp_path / "farm.sqlite")
    kwargs = dict(scenarios=["noc_jitter"],
                  designs=[FenceDesign.S_PLUS], seeds=[1, 2])
    local = run_chaos_matrix(**kwargs)
    farmed = run_chaos_matrix(farm_db=db, farm_workers=0, **kwargs)
    assert farmed["cases"] == local["cases"]
    assert farmed["total_cases"] == 2


# ----------------------------------------------------------------------
# the per-worker heartbeat thread
# ----------------------------------------------------------------------

def _litmus_spec(seeds=(1, 2, 3), designs=DESIGNS):
    """Millisecond chaos jobs — the size the farm mostly runs."""
    return CampaignSpec.make("chaos", ["noc_jitter"], designs, seeds=seeds,
                             core_counts=[0], scale=0.0,
                             config={"sanitize": "strict"})


def _failure_rows(db):
    with FarmStore(db) as store:
        return store._conn.execute(
            "SELECT worker, error FROM failures").fetchall()


def test_heartbeat_keeps_a_job_that_outlives_its_lease(tmp_path,
                                                       monkeypatch):
    """A job four leases long under a live worker is renewed: nobody
    else can claim it and it runs exactly once."""
    db = str(tmp_path / "farm.sqlite")
    cfg = FarmConfig(lease_secs=0.3)
    started, finished = threading.Event(), threading.Event()

    def slow(job, diag_dir=None):
        started.set()
        time.sleep(4 * cfg.lease_secs)
        finished.set()
        return {"v": job.seed}

    monkeypatch.setattr(worker_mod, "execute_job", slow)
    cid, _ = campaign_mod.submit(db, _litmus_spec(seeds=(1,),
                                                  designs=DESIGNS[:1]))
    owner = threading.Thread(
        target=run_worker, args=(db, cid),
        kwargs=dict(config=cfg, worker="w1", once=True))
    owner.start()
    try:
        assert started.wait(timeout=10)
        stolen = []
        with FarmStore(db) as rival:
            while not finished.wait(timeout=0.02):
                stolen.append(rival.claim(cid, "w2", cfg.lease_secs))
    finally:
        owner.join(timeout=10)
    assert not owner.is_alive()
    assert len(stolen) > 10 and set(stolen) == {None}
    with FarmStore(db) as store:
        st = store.status(cid)
    assert st["done"] == 1 and st["attempts"] == 1 and st["duplicates"] == 0
    assert _failure_rows(db) == []


def test_short_jobs_cost_no_connection_and_leave_no_thread(tmp_path,
                                                           monkeypatch):
    """Ten litmus-size jobs: the worker's own connection is the only
    one it opens, and its heartbeat thread is gone when it returns."""
    db = str(tmp_path / "farm.sqlite")
    cid, _ = campaign_mod.submit(db, _litmus_spec(seeds=range(1, 6)))
    opened = []

    class Counting(FarmStore):
        def __init__(self, *args, **kwargs):
            opened.append(threading.current_thread().name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(worker_mod, "FarmStore", Counting)
    threads_before = threading.active_count()
    stats = run_worker(db, cid, once=True)
    assert stats.completed == 10 and stats.heartbeat_errors == 0
    assert opened == [threading.current_thread().name]
    assert threading.active_count() == threads_before


def test_heartbeat_survives_a_failed_renewal(tmp_path, monkeypatch):
    """One thread protects every later job of the worker, so a renewal
    that raises is counted and the next one still happens."""
    db = str(tmp_path / "farm.sqlite")
    cfg = FarmConfig(lease_secs=0.3)
    renewals = []
    real = FarmStore.heartbeat

    def flaky(self, key, campaign, worker, lease_secs):
        renewals.append(key)
        if len(renewals) == 1:
            raise sqlite3.OperationalError("database is locked")
        return real(self, key, campaign, worker, lease_secs)

    monkeypatch.setattr(FarmStore, "heartbeat", flaky)
    monkeypatch.setattr(
        worker_mod, "execute_job",
        lambda job, diag_dir=None: time.sleep(0.45) or {"v": job.seed})
    cid, _ = campaign_mod.submit(db, _litmus_spec(seeds=(1,),
                                                  designs=DESIGNS[:1]))
    stats = run_worker(db, cid, config=cfg, worker="w1", once=True)
    assert stats.heartbeat_errors == 1
    assert len(renewals) >= 2  # 0.1 s failed, 0.2 s (and on) renewed
    assert stats.completed == 1 and stats.failed == 0
    with FarmStore(db) as store:
        assert store.status(cid)["attempts"] == 1
    assert _failure_rows(db) == []


def test_heartbeat_stress_every_job_runs_exactly_once(tmp_path,
                                                      monkeypatch):
    """More workers than cores, each arming and disarming its heartbeat
    thread 60-odd times under a 10 µs switch interval while renewals
    really fire: no job may be lost, repeated or failed."""
    db = str(tmp_path / "farm.sqlite")
    cfg = FarmConfig(lease_secs=0.15)  # a renewal every 0.05 s
    spec = CampaignSpec.make("matrix", ["w"], DESIGNS[:1],
                             seeds=range(200), **GRID)

    def trivial(job, diag_dir=None):
        if job.seed % 25 == 0:  # long enough to be renewed, twice
            time.sleep(0.12)
        return {"v": job.seed}

    monkeypatch.setattr(worker_mod, "execute_job", trivial)
    cid, _ = campaign_mod.submit(db, spec)
    results = []

    def worker(name):
        results.append(run_worker(db, cid, config=cfg, worker=name,
                                  once=True))

    threads = [threading.Thread(target=worker, args=(f"w{i}",))
               for i in range(3)]
    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threading.active_count() == threads_before
    assert sum(s.claimed for s in results) == 200
    assert sum(s.completed for s in results) == 200
    assert sum(s.heartbeat_errors for s in results) == 0
    with FarmStore(db) as store:
        st = store.status(cid)
        assert st["done"] == 200 and st["attempts"] == 200
        assert st["duplicates"] == 0 and store.result_count() == 200
        assert sorted(r["v"] for r in store.rows(cid).values()) == \
            list(range(200))
    assert _failure_rows(db) == []


# ----------------------------------------------------------------------
# the coordinator wakes on worker exit; poll_secs bounds supervision
# ----------------------------------------------------------------------

def test_coordinator_returns_when_the_pool_drains_not_at_the_next_poll(
        tmp_path):
    spec = _litmus_spec()  # six jobs
    inline = run_campaign(str(tmp_path / "inline.sqlite"), spec, workers=0)
    assert len(inline) == 6
    t0 = time.monotonic()
    pooled = run_campaign(str(tmp_path / "farm.sqlite"), spec, workers=2,
                          poll_secs=5.0, timeout=60)
    assert time.monotonic() - t0 < 2.0
    assert pooled == inline


def test_workers_dying_at_startup_do_not_cause_a_fork_storm(tmp_path,
                                                            monkeypatch):
    from repro.farm import pool as pool_mod

    monkeypatch.setattr(pool_mod, "worker_main", lambda *args: None)
    seen = {}
    with pytest.raises(TimeoutError):
        run_campaign(str(tmp_path / "farm.sqlite"), _litmus_spec(),
                     workers=2, poll_secs=0.25, timeout=1.0,
                     on_poll=lambda store, pool: seen.update(pool=pool))
    # each slot refilled once per poll_secs, however fast it empties
    assert 2 <= seen["pool"].respawns <= 5 * 2
    assert seen["pool"].procs == []  # stopped on the way out


def test_on_poll_fires_every_poll_secs_while_nothing_exits(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(
        worker_mod, "execute_job",
        lambda job, diag_dir=None: time.sleep(0.8) or {"v": job.seed})
    looks = []
    t0 = time.monotonic()
    rows = run_campaign(
        str(tmp_path / "farm.sqlite"),
        _litmus_spec(seeds=(1,), designs=DESIGNS[:1]), workers=1,
        poll_secs=0.1, timeout=60,
        on_poll=lambda store, pool: looks.append(pool.alive()))
    assert len(rows) == 1 and time.monotonic() - t0 < 5.0
    # the one worker exits once, at the end: every other look is a
    # poll_secs timeout (0.8 s of job / 0.1 s, less scheduling slack)
    assert len(looks) >= 5 and set(looks) == {1}
