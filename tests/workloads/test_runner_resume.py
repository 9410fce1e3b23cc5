"""RunSummary guards for runs cut off before any commit, and a sweep
SIGKILLed mid-way that reruns on its farm store to identical rows.

Surviving dead *workers* is the farm's lease protocol:
``tests/farm/test_farm_chaos.py``'s kill battery pins that a sweep
whose workers and coordinator die mid-flight converges to the clean
sweep's rows."""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap

from repro.common.params import FenceDesign
from repro.eval.runner import RunSummary, run_matrix

GRID = dict(num_cores=2, scale=0.06, farm_workers=0)
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


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

    real = run_matrix(["Counter"], figures.DESIGNS, seed=5, **GRID)
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
                                       scale=0.06)
    finally:
        figures.run_matrix = orig
    for entry in data["txn_entries"]:
        assert math.isfinite(entry["normalized_time"])
        assert entry["normalized_time"] == 0.0


# ----------------------------------------------------------------------
# SIGKILL mid-sweep, then a rerun on the same farm store
# ----------------------------------------------------------------------

_DRIVER = textwrap.dedent("""
    import os, sys
    from repro.common.params import FenceDesign
    from repro.eval import runner
    from repro.farm.store import FarmStore

    orig = FarmStore.complete

    def kamikaze_complete(self, *args):
        status = orig(self, *args)
        # one row is in the store: die exactly like an OOM kill
        os.kill(os.getpid(), 9)
        return status

    FarmStore.complete = kamikaze_complete
    runner.run_matrix(
        ["fib"],
        [FenceDesign.S_PLUS, FenceDesign.WS_PLUS, FenceDesign.W_PLUS],
        num_cores=2, scale=0.06, seed=5, farm_db=sys.argv[1],
        farm_workers=0,
    )
""")


def test_sigkilled_sweep_resumes_to_identical_rows(tmp_path, monkeypatch):
    from repro.farm import worker as worker_mod

    monkeypatch.setenv("REPRO_CODE_REV", "resume-rev")
    db = str(tmp_path / "farm.sqlite")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, db],
        env=env, cwd=REPO, capture_output=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL

    ran = []
    real = worker_mod.execute_job
    monkeypatch.setattr(worker_mod, "execute_job",
                        lambda job, diag_dir=None: ran.append(job)
                        or real(job, diag_dir))
    kwargs = dict(names=["fib"],
                  designs=[FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
                           FenceDesign.W_PLUS],
                  seed=5, **GRID)
    resumed = run_matrix(farm_db=db, **kwargs)
    assert len(ran) == 2  # only the jobs the killed sweep left undone
    clean = run_matrix(**kwargs)
    assert resumed.keys() == clean.keys()
    for key in clean:
        assert (dataclasses.asdict(resumed[key])
                == dataclasses.asdict(clean[key]))
