"""Experiment-matrix runner.

Runs (workload × fence design × core count) grids, optionally in
parallel across processes (simulations are independent), and returns
lightweight picklable summaries the figure/table generators consume.

Long sweeps are crash-resilient: with a *journal* path every finished
job is appended to a JSONL file as it completes, a worker process dying
mid-job (OOM kill, segfault, SIGKILL) is retried with backoff instead
of sinking the whole sweep, and ``resume=True`` (CLI ``--resume``)
skips journaled jobs so an interrupted sweep picks up where it stopped.

``REPRO_JOBS`` controls parallelism (default: up to 8 processes);
``REPRO_SCALE`` scales workload sizes (see ``workloads.base``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common import journal as journal_mod
from repro.common.params import FenceDesign
from repro.workloads.base import load_all_workloads, run_workload

#: attempts per job when the worker *process* dies (a Python exception
#: inside the job is not retried — it propagates, it's a real bug)
CRASH_RETRIES = 3
#: base backoff between crash retries, doubling per attempt
CRASH_BACKOFF_S = 0.25


@dataclass
class RunSummary:
    """Picklable summary of one workload run."""

    name: str
    group: str
    design: str
    num_cores: int
    cycles: int
    completed: bool
    #: cycle breakdown summed over cores
    busy: float
    fence_stall: float
    other_stall: float
    #: machine seed the run used — reports carry it so any row can be
    #: reproduced exactly from the report alone
    seed: int = 0
    #: flat stats (MachineStats.summary())
    stats: Dict[str, float] = field(default_factory=dict)
    #: a resource budget (REPRO_MAX_*) cut this run off gracefully, or
    #: the sanitizer stood down in degrade mode — first-class journaled
    #: outcome, not an exception
    degraded: bool = False
    degraded_reason: Optional[str] = None
    #: violations a warn/degrade-mode sanitizer (REPRO_SANITIZE)
    #: recorded during the run (strict raises instead)
    sanitizer_violations: int = 0
    #: machine-level cycle attribution, flattened to component ->
    #: core-cycles ("fence_stall.sf.drain": 1234.5, ...); None on rows
    #: journaled before the profiler existed
    attrib: Optional[Dict[str, float]] = None

    @property
    def total(self) -> float:
        return self.busy + self.fence_stall + self.other_stall

    @property
    def throughput(self) -> float:
        # a run cut off before any commit has no meaningful rate
        if not self.cycles:
            return 0.0
        return 1e6 * self.stats.get("txn_commits", 0) / self.cycles

    @property
    def txn_cycles_per_commit(self) -> float:
        commits = self.stats.get("txn_commits", 0)
        if not commits:
            # zero commits means the per-commit cost is unbounded, not
            # free — consumers that want "skip this row" semantics
            # must test for it (figures.py maps it to 0.0)
            return float("inf")
        return self.stats.get("txn_cycles_total", 0.0) / commits


def run_summary(
    name: str,
    design_name: str,
    num_cores: int,
    scale: float,
    seed: int,
    sanitize: Optional[str] = None,
    budget=None,
) -> RunSummary:
    """One fully-summarized matrix run — the shared executor behind
    the in-process sweep, the process-pool workers, and farm jobs.

    *sanitize*/*budget* default to the environment (``REPRO_SANITIZE``
    / ``REPRO_MAX_*``) exactly like :func:`run_workload`.
    """
    load_all_workloads()
    from repro.obs import Observability
    from repro.obs.attrib import flatten_node

    # attribution rides along on every matrix run: pure accumulator
    # writes, no event buffer, bit-identical simulated results — and
    # the figure generators get the fence-component split for free
    obs = Observability(trace=False, attrib=True)
    run = run_workload(
        name, FenceDesign[design_name], num_cores=num_cores,
        scale=scale, seed=seed, obs=obs, sanitize=sanitize, budget=budget,
    )
    stats = run.stats
    breakdown = stats.total_breakdown()
    flat = stats.summary()
    flat["txn_cycles_total"] = stats.txn_cycles
    flat["wee_sf_conversions"] = sum(stats.wee_sf_conversions)
    flat["wplus_recoveries"] = stats.wplus_recoveries
    flat["bounces"] = stats.bounces
    return RunSummary(
        name=name,
        group=run.group,
        design=str(run.design),
        num_cores=num_cores,
        cycles=run.cycles,
        completed=run.result.completed,
        seed=seed,
        busy=breakdown["busy"],
        fence_stall=breakdown["fence_stall"],
        other_stall=breakdown["other_stall"],
        stats=flat,
        degraded=run.result.degraded,
        degraded_reason=run.result.degraded_reason,
        sanitizer_violations=run.result.sanitizer_violations,
        attrib=flatten_node(obs.attrib.tree()["machine"]),
    )


def _run_one(job: Tuple[str, str, int, float, int]) -> RunSummary:
    name, design_name, num_cores, scale, seed = job
    return run_summary(name, design_name, num_cores, scale, seed)


def default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(8, (os.cpu_count() or 2) - 1))


# ----------------------------------------------------------------------
# journal (crash-resilient checkpointing)
# ----------------------------------------------------------------------

def _job_key(job: Tuple[str, str, int, float, int]) -> str:
    name, design_name, cores, scale, seed = job
    return f"{name}|{design_name}|{cores}|{scale!r}|{seed}"


def load_journal(path: str) -> Dict[str, RunSummary]:
    """Completed jobs from a JSONL journal, tolerant of a torn tail
    (a writer killed mid-append leaves a partial last line).  Repeated
    keys resolve deterministically last-writer-wins."""
    done: Dict[str, RunSummary] = {}
    keyed = journal_mod.load_keyed(path, key=lambda rec: rec.get("_key"))
    for key, rec in keyed.items():
        rec = dict(rec)
        rec.pop("_key", None)
        done[key] = RunSummary(**rec)
    return done


def _append_journal(writer: journal_mod.JournalWriter, key: str,
                    summary: RunSummary) -> None:
    rec = dataclasses.asdict(summary)
    rec["_key"] = key
    writer.append(rec)


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------

def _run_grid_parallel(
    grid: List[Tuple[str, str, int, float, int]],
    jobs: int,
    on_done,
    sleep=time.sleep,
) -> Dict[str, RunSummary]:
    """Run *grid* on a process pool, retrying worker crashes.

    A job whose worker process dies (BrokenProcessPool) is retried up
    to :data:`CRASH_RETRIES` times with doubling backoff — the pool is
    rebuilt each time since a broken executor is unusable.  A pool
    already broken by an earlier job's worker refuses further
    ``submit`` calls: that job and every job not yet submitted crashed
    with it.  Jobs that raise ordinary exceptions propagate
    immediately (a deterministic simulator bug would fail every retry
    anyway).
    """
    results: Dict[str, RunSummary] = {}
    pending = list(grid)
    attempt = 0
    while pending:
        workers = min(jobs, len(pending))
        ctx = multiprocessing.get_context("fork")
        crashed: List[Tuple[str, str, int, float, int]] = []
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=ctx) as pool:
            futures = []
            try:
                for job in pending:
                    futures.append((pool.submit(_run_one, job), job))
            except BrokenProcessPool:
                pass  # the jobs past len(futures) crashed with the pool
            for fut, job in futures:
                try:
                    summary = fut.result()
                except BrokenProcessPool:
                    crashed.append(job)
                    continue
                results[_job_key(job)] = summary
                on_done(_job_key(job), summary)
            crashed += pending[len(futures):]
        if not crashed:
            break
        attempt += 1
        if attempt > CRASH_RETRIES:
            raise RuntimeError(
                f"{len(crashed)} job(s) crashed their worker "
                f"{CRASH_RETRIES + 1} times; giving up: "
                f"{[_job_key(j) for j in crashed]}"
            )
        sleep(CRASH_BACKOFF_S * (2 ** (attempt - 1)))
        pending = crashed
    return results


def run_matrix(
    names: Sequence[str],
    designs: Sequence[FenceDesign],
    num_cores: int = 8,
    scale: float = 1.0,
    seed: int = 12345,
    core_counts: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    overwrite_journal: bool = False,
    farm_db: Optional[str] = None,
    farm_workers: Optional[int] = None,
) -> Dict[Tuple[str, str, int], RunSummary]:
    """Run the full grid; returns {(name, design, cores): summary}.

    With *journal* set each finished job is checkpointed to a JSONL
    file; *resume* reloads it and skips already-finished jobs.  An
    existing journal without *resume* is never silently destroyed:
    *overwrite_journal* must be passed explicitly and rotates the old
    file to ``<journal>.bak`` (:func:`repro.common.journal.prepare`).

    With *farm_db* (or ``REPRO_FARM_DB`` in the environment) the grid
    runs as a campaign on the durable experiment farm instead of an
    ad-hoc process pool: jobs are leased from a crash-safe SQLite
    store, results are served from the content-addressed cache when
    the identical job already ran, and the returned rows are
    bit-identical to a local sweep.
    """
    farm_db = farm_db or os.environ.get("REPRO_FARM_DB") or None
    if farm_db:
        from repro.farm.clients import farm_run_matrix

        return farm_run_matrix(
            names, designs, num_cores=num_cores, scale=scale, seed=seed,
            core_counts=core_counts, db=farm_db, workers=farm_workers,
            journal=journal, resume=resume,
            overwrite_journal=overwrite_journal,
        )
    counts = list(core_counts) if core_counts else [num_cores]
    grid = [
        (name, design.name, cores, scale, seed)
        for name in names
        for design in designs
        for cores in counts
    ]
    journal_mod.prepare(journal, resume=resume, overwrite=overwrite_journal)
    done = load_journal(journal) if (journal and resume) else {}
    results: Dict[str, RunSummary] = {
        _job_key(job): done[_job_key(job)]
        for job in grid if _job_key(job) in done
    }
    todo = [job for job in grid if _job_key(job) not in results]

    writer = journal_mod.JournalWriter(journal) if journal else None

    def on_done(key: str, summary: RunSummary) -> None:
        if writer is not None:
            _append_journal(writer, key, summary)

    jobs = jobs or default_jobs()
    try:
        if jobs > 1 and len(todo) > 1:
            results.update(_run_grid_parallel(todo, jobs, on_done))
        else:
            for job in todo:
                summary = _run_one(job)
                results[_job_key(job)] = summary
                on_done(_job_key(job), summary)
    finally:
        if writer is not None:
            writer.close()
    return {
        (r.name, r.design, r.num_cores): r
        for job in grid
        for r in (results[_job_key(job)],)
    }
