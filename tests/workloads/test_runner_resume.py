"""run_matrix crash resilience: zero-commit guards, the JSONL journal,
--resume after a SIGKILLed sweep, and worker-crash retry."""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common.params import FenceDesign
from repro.eval import runner
from repro.eval.runner import RunSummary, load_journal, run_matrix

GRID = dict(num_cores=2, scale=0.06)
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# RunSummary guards for runs cut off before any commit
# ----------------------------------------------------------------------

def _summary(cycles=0, commits=0, txn_cycles=0.0):
    return RunSummary(
        name="x", group="ustm", design="S+", num_cores=2,
        cycles=cycles, completed=False, busy=1.0, fence_stall=0.0,
        other_stall=0.0,
        stats={"txn_commits": commits, "txn_cycles_total": txn_cycles},
    )


def test_throughput_is_zero_for_a_zero_cycle_run():
    assert _summary(cycles=0, commits=0).throughput == 0.0


def test_txn_cycles_per_commit_is_inf_with_zero_commits():
    s = _summary(cycles=500, commits=0, txn_cycles=400.0)
    assert s.txn_cycles_per_commit == float("inf")
    assert s.throughput == 0.0


def test_txn_metrics_normal_path_unchanged():
    s = _summary(cycles=1000, commits=4, txn_cycles=800.0)
    assert s.txn_cycles_per_commit == 200.0
    assert s.throughput == 4000.0


def test_figures_map_inf_txn_cycles_to_zero():
    """A commit-less baseline row must not blow up the fig 9/10 ratios."""
    import math

    from repro.eval import figures

    real = run_matrix(["Counter"], figures.DESIGNS, seed=5, jobs=1, **GRID)
    hollow = {
        key: dataclasses.replace(
            s, stats={**s.stats, "txn_commits": 0})
        for key, s in real.items()
    }
    assert all(math.isinf(s.txn_cycles_per_commit)
               for s in hollow.values())

    def fake_run_matrix(*a, **k):
        return hollow

    orig = figures.run_matrix
    figures.run_matrix = fake_run_matrix
    try:
        data = figures.fig9_fig10_ustm(apps=("Counter",), num_cores=2,
                                       scale=0.06, jobs=1)
    finally:
        figures.run_matrix = orig
    for entry in data["txn_entries"]:
        assert math.isfinite(entry["normalized_time"])
        assert entry["normalized_time"] == 0.0


# ----------------------------------------------------------------------
# journal checkpointing and resume
# ----------------------------------------------------------------------

def test_journal_round_trips_summaries(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    kwargs = dict(names=["fib"], designs=[FenceDesign.S_PLUS,
                                          FenceDesign.WS_PLUS],
                  seed=5, jobs=1, **GRID)
    runs = run_matrix(journal=journal, **kwargs)
    loaded = load_journal(journal)
    assert len(loaded) == len(runs)
    by_key = {(s.name, s.design, s.num_cores): s for s in loaded.values()}
    for key, summary in runs.items():
        assert dataclasses.asdict(by_key[key]) == dataclasses.asdict(summary)


def test_resume_skips_journaled_jobs(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    kwargs = dict(names=["fib"], designs=[FenceDesign.S_PLUS,
                                          FenceDesign.WS_PLUS,
                                          FenceDesign.W_PLUS],
                  seed=5, jobs=1, **GRID)
    full = run_matrix(journal=journal, **kwargs)
    lines = open(journal).readlines()
    assert len(lines) == 3

    # drop the last journal line, as if the sweep died before job 3
    with open(journal, "w") as fh:
        fh.writelines(lines[:2])
    calls = []
    orig = runner._run_one
    runner._run_one = lambda job: calls.append(job) or orig(job)
    try:
        resumed = run_matrix(journal=journal, resume=True, **kwargs)
    finally:
        runner._run_one = orig
    assert len(calls) == 1  # only the missing job re-ran
    assert resumed.keys() == full.keys()
    for key in full:
        assert (dataclasses.asdict(resumed[key])
                == dataclasses.asdict(full[key]))


def test_fresh_sweep_refuses_to_destroy_a_stale_journal(tmp_path):
    """No resume and no explicit overwrite: the existing journal is an
    error, never a silent delete."""
    from repro.common.errors import ConfigError

    journal = str(tmp_path / "sweep.jsonl")
    kwargs = dict(names=["fib"], designs=[FenceDesign.S_PLUS],
                  seed=5, jobs=1, **GRID)
    run_matrix(journal=journal, **kwargs)
    before = open(journal).read()
    with pytest.raises(ConfigError, match="already exists"):
        run_matrix(journal=journal, **kwargs)  # no resume: refused
    assert open(journal).read() == before  # untouched


def test_overwrite_journal_rotates_to_bak(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    kwargs = dict(names=["fib"], designs=[FenceDesign.S_PLUS],
                  seed=5, jobs=1, **GRID)
    run_matrix(journal=journal, **kwargs)
    before = open(journal).read()
    run_matrix(journal=journal, overwrite_journal=True, **kwargs)
    assert len(open(journal).readlines()) == 1
    assert open(journal + ".bak").read() == before  # rotated, not deleted


def test_resume_tolerates_a_torn_journal_tail(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    kwargs = dict(names=["fib"], designs=[FenceDesign.S_PLUS,
                                          FenceDesign.WS_PLUS],
                  seed=5, jobs=1, **GRID)
    full = run_matrix(journal=journal, **kwargs)
    with open(journal, "a") as fh:
        fh.write('{"name": "fib", "design"')  # torn mid-append
    resumed = run_matrix(journal=journal, resume=True, **kwargs)
    for key in full:
        assert (dataclasses.asdict(resumed[key])
                == dataclasses.asdict(full[key]))


# ----------------------------------------------------------------------
# SIGKILL mid-sweep, then --resume (the CI resilience contract)
# ----------------------------------------------------------------------

_DRIVER = textwrap.dedent("""
    import os, sys
    from repro.common.params import FenceDesign
    from repro.eval import runner

    journal = sys.argv[1]
    orig = runner._append_journal

    def kamikaze_append(fh, key, summary):
        orig(fh, key, summary)
        # one checkpoint is on disk: die exactly like an OOM kill
        os.kill(os.getpid(), 9)

    runner._append_journal = kamikaze_append
    runner.run_matrix(
        ["fib"],
        [FenceDesign.S_PLUS, FenceDesign.WS_PLUS, FenceDesign.W_PLUS],
        num_cores=2, scale=0.06, seed=5, jobs=1, journal=journal,
    )
""")


def test_sigkilled_sweep_resumes_to_identical_rows(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, journal],
        env=env, cwd=REPO, capture_output=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL
    killed_lines = open(journal).readlines()
    assert len(killed_lines) == 1  # died right after the first checkpoint

    kwargs = dict(names=["fib"],
                  designs=[FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
                           FenceDesign.W_PLUS],
                  seed=5, jobs=1, **GRID)
    resumed = run_matrix(journal=journal, resume=True, **kwargs)
    clean = run_matrix(**kwargs)
    assert resumed.keys() == clean.keys()
    for key in clean:
        assert (dataclasses.asdict(resumed[key])
                == dataclasses.asdict(clean[key]))
    # and the journal now holds the complete grid
    assert len(open(journal).readlines()) == 3


# ----------------------------------------------------------------------
# worker-process crash retry (BrokenProcessPool path)
# ----------------------------------------------------------------------

# The pool pickles the submitted callable by qualified name, so the
# crash doubles must live at module level.  Their state rides on a
# module global + a flag file: the fork-context workers inherit both.
_REAL_RUN_ONE = runner._run_one
_KAMIKAZE_FLAG = ""


def _crash_once_run_one(job):
    """SIGKILL the worker the first time any worker runs a job, then
    behave normally (the flag file is the cross-process memory)."""
    if _KAMIKAZE_FLAG and not os.path.exists(_KAMIKAZE_FLAG):
        with open(_KAMIKAZE_FLAG, "w") as fh:
            fh.write("boom")
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_RUN_ONE(job)


def _always_crash_run_one(job):
    os.kill(os.getpid(), signal.SIGKILL)


def test_worker_crash_is_retried_not_fatal(tmp_path, monkeypatch):
    """One worker SIGKILLs itself mid-job: the pool breaks, the job is
    retried on a fresh pool, and the sweep still returns every row."""
    flag = str(tmp_path / "crashed-once")
    monkeypatch.setattr(f"{__name__}._KAMIKAZE_FLAG", flag)
    monkeypatch.setattr(runner, "_run_one", _crash_once_run_one)
    sleeps = []
    results = runner._run_grid_parallel(
        [("fib", "S_PLUS", 2, 0.06, 5), ("fib", "WS_PLUS", 2, 0.06, 5)],
        jobs=2,
        on_done=lambda key, s: None,
        sleep=sleeps.append,
    )
    assert os.path.exists(flag)  # the crash really happened
    assert len(results) == 2
    assert sleeps == [runner.CRASH_BACKOFF_S]  # one backoff, then clean
    designs = {s.design for s in results.values()}
    assert designs == {"S+", "WS+"}


def test_repeated_worker_crashes_exhaust_retries(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_run_one", _always_crash_run_one)
    with pytest.raises(RuntimeError, match="crashed their worker"):
        runner._run_grid_parallel(
            [("fib", "S_PLUS", 2, 0.06, 5),
             ("fib", "WS_PLUS", 2, 0.06, 5)],
            jobs=2,
            on_done=lambda key, s: None,
            sleep=lambda s: None,
        )


class _StubPool:
    """Pool double.  Unhealthy: the first job's worker is already dead
    when the second job is submitted, so ``submit`` itself raises — the
    order of events the SIGKILL doubles above reach only some of the
    time.  Healthy: jobs run inline."""

    def __init__(self, healthy):
        self.healthy = healthy
        self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job):
        self.submitted += 1
        fut = Future()
        if self.healthy:
            fut.set_result(_REAL_RUN_ONE(job))
        elif self.submitted == 1:
            fut.set_exception(BrokenProcessPool("worker died"))
        else:
            raise BrokenProcessPool("pool is not usable anymore")
        return fut


def _stub_pools(monkeypatch, broken):
    """Replace the runner's pool class; the first *broken* pools it
    builds are unhealthy.  Returns the list of pools built."""
    pools = []

    def build(max_workers, mp_context):
        pools.append(_StubPool(healthy=len(pools) >= broken))
        return pools[-1]

    monkeypatch.setattr(runner, "ProcessPoolExecutor", build)
    return pools


THREE_JOBS = [("fib", "S_PLUS", 2, 0.06, 5), ("fib", "WS_PLUS", 2, 0.06, 5),
              ("fib", "W_PLUS", 2, 0.06, 5)]


def test_submit_on_a_broken_pool_exhausts_retries(monkeypatch):
    """Every pool breaks before its second submit: the submit-time
    BrokenProcessPool is a crash of that job and of the one behind it,
    retried with the same backoff, and reported — not an escape."""
    pools = _stub_pools(monkeypatch, broken=99)
    sleeps = []
    with pytest.raises(RuntimeError, match="3 job.s. crashed their worker"):
        runner._run_grid_parallel(THREE_JOBS, jobs=2,
                                  on_done=lambda key, s: None,
                                  sleep=sleeps.append)
    assert len(pools) == runner.CRASH_RETRIES + 1
    assert sleeps == [runner.CRASH_BACKOFF_S * 2 ** i
                      for i in range(runner.CRASH_RETRIES)]


def test_jobs_behind_a_broken_submit_are_retried(monkeypatch):
    pools = _stub_pools(monkeypatch, broken=1)
    done = []
    results = runner._run_grid_parallel(
        THREE_JOBS, jobs=2, on_done=lambda key, s: done.append(key),
        sleep=lambda s: None)
    assert len(pools) == 2
    assert {s.design for s in results.values()} == {"S+", "WS+", "W+"}
    assert sorted(done) == sorted(results)
