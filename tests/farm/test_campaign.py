"""Campaign semantics: farm sweeps are bit-identical to local ones,
re-submission is free (content-addressed cache), coordinator restarts
resume, and the sweeps' clients round-trip through the farm."""

import contextlib
import dataclasses
import json
import os
import signal
import sqlite3
import sys
import threading
import time

import pytest

from repro.common.errors import (
    CampaignError,
    ConfigError,
    DeadlockError,
    SanitizerError,
)
from repro.common.params import FenceDesign
from repro.farm import campaign as campaign_mod
from repro.farm import store as store_mod
from repro.farm import worker as worker_mod
from repro.farm.campaign import run_campaign
from repro.farm.exec import execute_job
from repro.farm.spec import CampaignSpec
from repro.farm.store import LEASE_EXPIRED, FarmStore
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
    with FarmStore(db) as store:
        for _ in range(2):  # "coordinator died" after 2 jobs
            key, job = store.claim(cid, "w1", 30.0)
            store.complete(key, cid, "w1", execute_job(job))
        assert store.status(cid)["done"] == 2
        assert not store.campaign_done(cid)
    resumed = run_campaign(db, spec, workers=0)  # the restart
    assert resumed == clean
    with FarmStore(db) as store:
        st = store.status(cid)
        assert st["done"] == 4 and st["attempts"] == 4  # no re-runs


def test_worker_pool_campaign_matches_inline_rows(tmp_path, monkeypatch):
    db = str(tmp_path / "farm.sqlite")
    inline_db = str(tmp_path / "inline.sqlite")
    spec = _spec(seeds=(5, 6, 7))
    monkeypatch.setattr(worker_mod, "IDLE_SECS", 0.02)
    monkeypatch.setattr(campaign_mod, "SUPERVISE_SECS", 0.02)
    cfg = FarmConfig(lease_secs=10.0)
    pooled = run_campaign(db, spec, workers=2, config=cfg, timeout=120)
    inline = run_campaign(inline_db, spec, workers=0)
    assert pooled == inline  # scheduling cannot change the rows


def _forbid_workers(monkeypatch):
    """Any worker the coordinator starts from here on fails the test."""
    from repro.farm.pool import WorkerPool

    def no_pool(self):
        raise AssertionError("a finished campaign started a worker pool")

    def no_inline_worker(*args, **kwargs):
        raise AssertionError("a finished campaign ran an inline worker")

    monkeypatch.setattr(WorkerPool, "start", no_pool)
    monkeypatch.setattr(campaign_mod, "run_worker", no_inline_worker)


def _attempts(db, cid):
    with FarmStore(db) as store:
        return store.status(cid)["attempts"]


def test_finished_campaign_forks_no_worker(tmp_path, monkeypatch):
    """A campaign with nothing left to run — every row cached, or the
    only unfinished job quarantined — is answered by the coordinator
    alone: no pool, no inline worker, no supervision look."""
    from repro.farm.clients import campaign_rows

    db = str(tmp_path / "farm.sqlite")
    spec = _litmus_spec()
    cid = spec.campaign_id()
    first = run_campaign(db, spec, workers=0)
    attempts = _attempts(db, cid)
    assert len(first) == 6 and attempts == 6
    _forbid_workers(monkeypatch)
    looks = []
    again = run_campaign(db, spec, workers=2,
                         on_poll=lambda store, pool: looks.append(pool))
    assert again == first
    assert looks == []
    assert _attempts(db, cid) == attempts
    assert run_campaign(db, spec, workers=0) == first

    # done but incomplete: the collector still names the lost job
    poisoned_db = str(tmp_path / "poisoned.sqlite")
    spec = _litmus_spec(seeds=(1,))  # 2 jobs
    poison = spec.expand()[0].content_key()
    real = worker_mod.execute_job

    def sometimes_poisoned(job, diag_dir=None):
        if job.content_key() == poison:
            raise RuntimeError("synthetic poison")
        return real(job, diag_dir)

    monkeypatch.setattr(worker_mod, "execute_job", sometimes_poisoned)
    cid, _ = campaign_mod.submit(poisoned_db, spec)
    run_worker(poisoned_db, cid, config=FarmConfig(quarantine_after=1),
               once=True)
    with FarmStore(poisoned_db) as store:
        assert store.campaign_done(cid)
        assert store.status(cid)["quarantined"] == 1
    with pytest.raises(CampaignError,
                       match="1 unproduced.*RuntimeError: synthetic poison"):
        campaign_rows(poisoned_db, spec, workers=2)
    assert _attempts(poisoned_db, cid) == 2


def test_farm_resume_of_a_finished_campaign_exits_0(tmp_path, monkeypatch,
                                                    capsys):
    from repro.cli import main

    db = str(tmp_path / "farm.sqlite")
    spec = _litmus_spec()
    cid = spec.campaign_id()
    run_campaign(db, spec, workers=0)
    _forbid_workers(monkeypatch)
    assert main(["farm", "resume", "--db", db, cid, "--workers", "2"]) == 0
    assert f"campaign {cid} complete: 6 row(s)" in capsys.readouterr().out
    assert _attempts(db, cid) == 6


# ----------------------------------------------------------------------
# one supervision loop for every worker count: inline too
# ----------------------------------------------------------------------

def test_inline_campaign_waits_out_a_dead_workers_lease(tmp_path):
    """A job still leased by a worker that died (a killed earlier run)
    is taken over once the lease expires: the inline coordinator waits
    for it as a pool does, and charges the dead owner once."""
    from repro.farm.clients import campaign_rows

    db = str(tmp_path / "farm.sqlite")
    spec = _litmus_spec(seeds=(1,))  # 2 jobs
    clean = campaign_rows(str(tmp_path / "clean.sqlite"), spec, workers=0)
    with FarmStore(db) as store:
        cid, _ = store.submit_campaign(spec)
        key, _ = store.claim(cid, "host:999999", lease_secs=0.5)
    t0 = time.monotonic()
    with _deadline():
        rows = campaign_rows(db, spec, workers=0,
                             config=FarmConfig(lease_secs=0.5))
    assert time.monotonic() - t0 < 5.0
    assert rows == clean
    assert _failure_rows(db) == [("host:999999", LEASE_EXPIRED)]
    with FarmStore(db) as store:
        assert store._one("SELECT attempts FROM jobs WHERE key=?",
                          (key,)) == (2,)


def test_inline_campaign_stops_at_a_job_that_raises(tmp_path, monkeypatch):
    """The inline coordinator calls on_poll too, so campaign_rows stops
    a job that always raises after one attempt, with its mapped error,
    instead of retrying it behind its backoff forever."""
    from repro.farm.clients import campaign_rows

    db = str(tmp_path / "farm.sqlite")
    spec = _litmus_spec(seeds=(1,))  # 2 jobs
    poison = spec.expand()[0].content_key()
    real = worker_mod.execute_job

    def sometimes_poisoned(job, diag_dir=None):
        if job.content_key() == poison:
            raise SanitizerError("synthetic violation")
        return real(job, diag_dir)

    monkeypatch.setattr(worker_mod, "execute_job", sometimes_poisoned)
    # a chaos job's name carries no core count
    with _deadline(), pytest.raises(
            SanitizerError, match=r"1 unproduced job\(s\); noc_jitter/S\+/s1:"
                                  " SanitizerError: synthetic violation"):
        campaign_rows(db, spec, workers=0)
    with FarmStore(db) as store:
        st = store.status(spec.campaign_id())
    assert (st["done"], st["pending"], st["attempts"]) == (1, 1, 2)


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
    monkeypatch.setattr(store_mod, "BACKOFF_BASE", 0.01)
    cfg = FarmConfig(quarantine_after=3, diag_dir=str(diag))
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
    # names the error that quarantined it (run_matrix's grid is the
    # plain spec above only when no sanitizer mode joins its keys)
    from repro.eval.runner import run_matrix

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    with pytest.raises(CampaignError,
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
# a run's settings are values that travel in the job's content key: the
# environment neither shapes a row nor picks which cached row is served
# ----------------------------------------------------------------------

def _fib_row(db):
    """fib, S+, 4 cores, scale 0.1 — 6321 cycles when it completes."""
    from repro.eval.runner import run_matrix

    (row,) = run_matrix(["fib"], [FenceDesign.S_PLUS], num_cores=4,
                        scale=0.1, farm_db=db, farm_workers=0).values()
    return row


def test_an_event_budget_in_the_environment_degrades_no_row(tmp_path,
                                                            monkeypatch):
    from repro.workloads.base import load_all_workloads, run_workload

    db = str(tmp_path / "farm.sqlite")
    monkeypatch.setenv("REPRO_MAX_EVENTS", "500")
    row = _fib_row(db)
    assert (row.cycles, row.completed, row.degraded) == (6321, True, False)
    load_all_workloads()
    run = run_workload("fib", FenceDesign.S_PLUS, num_cores=4, scale=0.1)
    assert (run.cycles, run.result.completed) == (6321, True)
    # and the warm store serves a plain run that same complete row
    monkeypatch.delenv("REPRO_MAX_EVENTS")
    assert _fib_row(db) == row


@pytest.mark.parametrize("mode", ["strict", "bogus"])
def test_a_warm_store_serves_no_plain_row_to_another_sanitize_mode(
        tmp_path, monkeypatch, mode):
    db = str(tmp_path / "farm.sqlite")
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = _fib_row(db)
    ran = []
    real = worker_mod.execute_job
    monkeypatch.setattr(worker_mod, "execute_job",
                        lambda job, diag_dir=None: ran.append(job)
                        or real(job, diag_dir))
    monkeypatch.setenv("REPRO_SANITIZE", mode)
    if mode == "bogus":
        with pytest.raises(ConfigError,
                           match="unknown sanitizer mode 'bogus'"):
            _fib_row(db)
        assert ran == []
        return
    assert _fib_row(db) == plain  # the sanitizer perturbs nothing ...
    # ... but it did run: the mode is in the job's config, so its key
    assert [job.config_dict() for job in ran] == [{"sanitize": "strict"}]


@pytest.mark.parametrize("kind,workload,env,flag,config", [
    # the flag, else REPRO_SANITIZE; off adds nothing
    ("matrix", "fib", None, None, {}),
    ("matrix", "fib", "off", None, {}),
    ("matrix", "fib", "strict", None, {"sanitize": "strict"}),
    ("matrix", "fib", "strict", "off", {}),
])
def test_farm_submit_writes_the_resolved_mode_into_the_config(
        tmp_path, monkeypatch, kind, workload, env, flag, config):
    from repro.cli import main

    if env is None:
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    else:
        monkeypatch.setenv("REPRO_SANITIZE", env)
    db = str(tmp_path / "farm.sqlite")
    argv = ["farm", "submit", "--db", db,
            "--workloads", workload, "--designs", "S+", "--seeds", "1"]
    if flag:
        argv += ["--sanitize", flag]
    assert main(argv) == 0
    with FarmStore(db) as store:
        ((_, spec),) = store.campaigns()
    assert spec.kind == kind
    assert json.loads(spec.config) == config


def _stored_jobs(db):
    from repro.farm.spec import JobSpec

    with FarmStore(db) as store:
        return {JobSpec.from_json(blob) for (blob,)
                in store._conn.execute("SELECT spec FROM jobs")}


#: fib, S+, 2 cores, scale 0.05, the default seed
SUBMIT_GRID = ["--workloads", "fib", "--designs", "S+", "--cores", "2",
               "--scale", "0.05"]


@pytest.mark.parametrize("env,flags,sanitize,max_events", [
    (None, [], "off", None),
    (None, ["--sanitize", "off"], "off", None),
    ("off", [], "off", None),
    (None, ["--sanitize", "strict"], "strict", None),
    (None, ["--max-events", "500"], "off", 500),
], ids=["no-mode", "flag-off", "env-off", "flag-strict", "max-events"])
def test_farm_submit_stores_the_jobs_matrix_campaign_builds(
        tmp_path, monkeypatch, env, flags, sanitize, max_events):
    """One key per job: ``farm submit`` and ``run_matrix`` build their
    grids with the same function, so the same work shares cache rows."""
    from repro.cli import main
    from repro.eval.runner import run_matrix
    from repro.farm.clients import matrix_campaign

    if env is None:
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    else:
        monkeypatch.setenv("REPRO_SANITIZE", env)
    db = str(tmp_path / "farm.sqlite")
    assert main(["farm", "submit", "--db", db, *SUBMIT_GRID,
                 *flags]) == 0
    built = matrix_campaign(["fib"], [FenceDesign.S_PLUS], [12345], [2],
                            0.05, sanitize=sanitize, max_events=max_events)
    assert _stored_jobs(db) == set(built.expand())
    if sanitize == "off" and max_events is None:
        matrix_db = str(tmp_path / "matrix.sqlite")
        run_matrix(["fib"], [FenceDesign.S_PLUS], num_cores=2, scale=0.05,
                   farm_db=matrix_db, farm_workers=0)
        assert _stored_jobs(matrix_db) == _stored_jobs(db)


# ----------------------------------------------------------------------
# one exit code per failure, whichever command drives the campaign
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _deadline(secs=60):
    """Fail a command that hangs instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {secs} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(secs)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _exits(capsys, argv, code, *markers):
    from repro.cli import main

    with _deadline():
        got = main(argv)
    err = capsys.readouterr().err
    assert got == code, err
    for marker in markers:
        assert marker in err


@pytest.mark.parametrize("exc,code", [
    (SanitizerError("synthetic violation"), 5),
    (DeadlockError("synthetic deadlock"), 4),
], ids=["sanitizer", "deadlock"])
def test_a_failing_job_exits_with_its_code_from_every_command(
        tmp_path, monkeypatch, capsys, exc, code):
    from repro.farm import exec as exec_mod

    def failing(job, diag_dir=None):
        raise exc

    monkeypatch.setitem(exec_mod.EXECUTORS, "matrix", failing)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.setenv("REPRO_FARM_WORKERS", "0")
    named = f"fib/S+/2c/s12345: {type(exc).__name__}: {exc}"
    _exits(capsys, ["table", "4", "--scale", "0.05", "--cores", "2"],
           code, named)
    for workers in ("0", "2"):  # inline, then a pool that must stop
        db = str(tmp_path / f"farm{workers}.sqlite")
        _exits(capsys, ["farm", "submit", "--db", db, *SUBMIT_GRID,
                        "--run", "--workers", workers], code, named)
        with FarmStore(db) as store:
            ((cid, _),) = store.campaigns()
        _exits(capsys, ["farm", "resume", "--db", db, cid,
                        "--workers", workers], code, named)


@pytest.mark.parametrize("command", ["resume", "table"])
def test_a_job_quarantined_by_expired_leases_exits_1(
        tmp_path, monkeypatch, capsys, command):
    """Three workers that died holding a job's lease quarantine it at
    the next claim: the campaign is unhealthy (1), not misused (2)."""
    from repro.eval.tables import TABLE4_APPS
    from repro.farm import exec as exec_mod
    from repro.farm.clients import matrix_campaign

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.setenv("REPRO_FARM_DB", str(tmp_path / "farm.sqlite"))
    monkeypatch.setenv("REPRO_FARM_WORKERS", "0")
    # the first campaign `table 4` submits: its cilk grid
    spec = matrix_campaign(
        TABLE4_APPS["cilk"],
        [FenceDesign.S_PLUS, FenceDesign.WS_PLUS, FenceDesign.W_PLUS,
         FenceDesign.WEE], [12345], [2], 0.05)
    with FarmStore(os.environ["REPRO_FARM_DB"]) as store:
        cid, _ = store.submit_campaign(spec)
        key, _ = store.claim(cid, "w1", lease_secs=0.0)
        for worker in ("w2", "w3"):
            claimed = store.claim(cid, worker, lease_secs=0.0,
                                  now=time.time() + 0.001)
            assert claimed[0] == key
    # every other job produces a row at once
    monkeypatch.setitem(exec_mod.EXECUTORS, "matrix",
                        lambda job, diag_dir=None: {"seed": job.seed})
    argv = (["farm", "resume", cid] if command == "resume"
            else ["table", "4", "--scale", "0.05", "--cores", "2"])
    _exits(capsys, argv, 1, "farm campaign unhealthy",
           "1 unproduced job(s)", "lease-expired")
    with FarmStore(os.environ["REPRO_FARM_DB"]) as store:
        assert store.status(cid)["quarantined"] == 1


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
# the coordinator wakes on worker exit; SUPERVISE_SECS bounds supervision
# ----------------------------------------------------------------------

def test_coordinator_returns_when_the_pool_drains_not_at_the_next_poll(
        tmp_path, monkeypatch):
    spec = _litmus_spec()  # six jobs
    inline = run_campaign(str(tmp_path / "inline.sqlite"), spec, workers=0)
    assert len(inline) == 6
    monkeypatch.setattr(campaign_mod, "SUPERVISE_SECS", 5.0)
    t0 = time.monotonic()
    pooled = run_campaign(str(tmp_path / "farm.sqlite"), spec, workers=2,
                          timeout=60)
    assert time.monotonic() - t0 < 2.0
    assert pooled == inline


def test_the_pool_is_no_larger_than_the_work(tmp_path, monkeypatch):
    """A one-job campaign asked for four workers forks one: the others
    would only poll the store until the campaign is done."""
    from repro.farm.pool import WorkerPool

    spawned = []
    real = WorkerPool._spawn
    monkeypatch.setattr(WorkerPool, "_spawn",
                        lambda self: spawned.append(self) or real(self))
    monkeypatch.setattr(campaign_mod, "SUPERVISE_SECS", 0.1)
    rows = run_campaign(str(tmp_path / "farm.sqlite"),
                        _litmus_spec(seeds=(1,), designs=DESIGNS[:1]),
                        workers=4, timeout=60)
    assert len(rows) == 1
    assert len(spawned) == 1 and spawned[0].size == 1


def test_workers_dying_at_startup_do_not_cause_a_fork_storm(tmp_path,
                                                            monkeypatch):
    from repro.farm import pool as pool_mod

    monkeypatch.setattr(pool_mod, "worker_main", lambda *args: None)
    monkeypatch.setattr(campaign_mod, "SUPERVISE_SECS", 0.25)
    seen = {}
    with pytest.raises(TimeoutError):
        run_campaign(str(tmp_path / "farm.sqlite"), _litmus_spec(),
                     workers=2, timeout=1.0,
                     on_poll=lambda store, pool: seen.update(pool=pool))
    # each slot refilled once per SUPERVISE_SECS, however fast it empties
    assert 2 <= seen["pool"].respawns <= 5 * 2
    assert seen["pool"].procs == []  # stopped on the way out


def test_on_poll_fires_every_poll_secs_while_nothing_exits(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(
        worker_mod, "execute_job",
        lambda job, diag_dir=None: time.sleep(0.8) or {"v": job.seed})
    monkeypatch.setattr(campaign_mod, "SUPERVISE_SECS", 0.1)
    looks = []
    t0 = time.monotonic()
    rows = run_campaign(
        str(tmp_path / "farm.sqlite"),
        _litmus_spec(seeds=(1,), designs=DESIGNS[:1]), workers=1,
        timeout=60,
        on_poll=lambda store, pool: looks.append(pool.alive()))
    assert len(rows) == 1 and time.monotonic() - t0 < 5.0
    # the one worker exits once, at the end: every other look is a
    # SUPERVISE_SECS timeout (0.8 s of job / 0.1 s, less scheduling slack)
    assert len(looks) >= 5 and set(looks) == {1}
