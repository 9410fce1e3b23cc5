"""Campaign coordination: submit a grid, drive it to completion.

The coordinator owns no irreplaceable state — it submits the campaign
(idempotent), supervises a self-healing :class:`WorkerPool` or runs
the worker itself, and looks at the store after each worker exit or
pass (and every :data:`SUPERVISE_SECS` besides) until no runnable work
remains or a job has raised.  Killing the coordinator and re-running
:func:`run_campaign` with the same spec resumes exactly the unfinished
jobs and converges to the same result rows; a *finished* campaign
resubmitted later is served entirely from the result cache (zero new
simulations, no worker started).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.common.errors import EXIT_BY_ERROR, CampaignError, ConfigError
from repro.farm.pool import WorkerPool
from repro.farm.spec import CampaignSpec
from repro.farm.store import LEASE_EXPIRED, FarmStore
from repro.farm.worker import FarmConfig, run_worker

#: the coordinator's supervision bound: the longest it goes without a
#: look at the store, and the shortest time between two respawns of one
#: pool slot (an idle worker's own wait is ``worker.IDLE_SECS``)
SUPERVISE_SECS = 0.25


def default_farm_workers() -> int:
    """``REPRO_FARM_WORKERS`` (0 runs inline), else CPUs − 1 capped at
    8, or 0 where that is under 2: a pool of one runs nothing in
    parallel and pays the fork.  A value that is not a count ≥ 0 is a
    :class:`ConfigError`, which the CLI reports as a usage error."""
    env = os.environ.get("REPRO_FARM_WORKERS")
    if not env:
        workers = min(8, (os.cpu_count() or 2) - 1)
        return workers if workers >= 2 else 0
    if not env.strip().isdecimal():
        raise ConfigError(
            f"REPRO_FARM_WORKERS={env!r}: expected a worker count >= 0 "
            f"(0 runs inline)")
    return int(env)


def store_path(db: Optional[str] = None) -> Optional[str]:
    """The farm store *db* names, else ``REPRO_FARM_DB``'s, else None
    — the one reader of that variable."""
    return db or os.environ.get("REPRO_FARM_DB") or None


def submit(db_path: str, spec: CampaignSpec,
           diag_dir: Optional[str] = None) -> Tuple[str, Dict[str, int]]:
    """Register *spec*'s jobs; returns ``(campaign_id, counts)``."""
    with FarmStore(db_path, diag_dir=diag_dir) as store:
        return store.submit_campaign(spec)


def collect(db_path: str, campaign: str) -> Dict[str, dict]:
    """``{content_key: result_row}`` for the campaign's done jobs."""
    with FarmStore(db_path) as store:
        return store.rows(campaign)


def run_campaign(db: Optional[str], spec: CampaignSpec,
                 workers: Optional[int] = None,
                 config: Optional[FarmConfig] = None) -> List[dict]:
    """Submit *spec* and drive it to completion; its result rows in
    ``spec.expand()`` order.

    The store is *db*, else ``REPRO_FARM_DB``'s, else one in a
    temporary directory that lives for the call.  On a named store an
    interrupted campaign resumes and a repeated one is served from the
    result cache; a campaign with nothing left to run returns its rows
    without starting a worker.

    A :class:`WorkerPool` of *workers* processes (default
    :func:`default_farm_workers`), but no more than there are jobs left
    to run, drains the campaign.  With ``workers == 0`` the coordinator
    forks nothing and runs each pass of the worker itself
    (``run_worker(once=True)``, fully deterministic scheduling).
    Either way one loop supervises until no job is pending or leased:
    a pass (or a respawn of any dead worker), a look at the store, then
    a wait of at most :data:`SUPERVISE_SECS`, which a worker's exit
    cuts short.  So a lease that a killed worker still holds is waited
    out and its job run again, with or without a pool.

    The stop rule: a look that finds an error other than an expired
    lease recorded since the call began stops the campaign, since
    simulations are deterministic and the job would raise again on
    every worker.  A campaign that ends with unproduced jobs raises
    the first of their recorded error classes that
    :data:`EXIT_BY_ERROR` maps, else :class:`CampaignError` (exit 1);
    the message names the first failed jobs and their errors.
    """
    workers = default_farm_workers() if workers is None else workers
    db = store_path(db)
    if not db:
        with tempfile.TemporaryDirectory(prefix="repro-farm-") as tmp:
            return run_campaign(os.path.join(tmp, "farm.sqlite"), spec,
                                workers, config)
    config = config or FarmConfig()
    started = time.time()
    with FarmStore(db, diag_dir=config.diag_dir) as store:
        cid, _counts = store.submit_campaign(spec)
        status = store.status(cid)
        size = min(workers, status["pending"] + status["leased"])
        with (WorkerPool(db, cid, size, config=config) if size
              else contextlib.nullcontext()) as pool:
            while not store.campaign_done(cid):
                if pool is None:
                    run_worker(db, cid, config=config, once=True)
                else:
                    pool.ensure(min_age=SUPERVISE_SECS)
                if store.campaign_done(cid) or any(
                        err != LEASE_EXPIRED for err in
                        store.errors(cid, since=started).values()):
                    break
                if pool is None:
                    time.sleep(SUPERVISE_SECS)
                else:
                    pool.wait(SUPERVISE_SECS)
        return _grid_rows(store, cid, spec)


def _grid_rows(store: FarmStore, cid: str,
               spec: CampaignSpec) -> List[dict]:
    """*spec*'s rows in grid order, or the error for its unproduced
    jobs (see :func:`run_campaign`)."""
    rows = store.rows(cid)
    # the jobs (and their cached keys) submit_campaign already built
    jobs = spec.expand()
    missing = [job for job in jobs if job.content_key() not in rows]
    if not missing:
        return [rows[job.content_key()] for job in jobs]
    errors = store.errors(cid)
    failed = [(job, errors[job.content_key()]) for job in missing
              if job.content_key() in errors]
    detail = "".join(f"; {job.name}: {err}" for job, err in failed[:3])
    if len(failed) > 3:
        detail += f"; ... {len(failed) - 3} more"
    named = {cls.__name__: cls for cls in EXIT_BY_ERROR}
    cls = next((named[err.partition(":")[0]] for _job, err in failed
                if err.partition(":")[0] in named), CampaignError)
    raise cls(f"farm campaign {cid}: {len(missing)} unproduced job(s)"
              + detail)
