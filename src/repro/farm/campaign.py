"""Campaign coordination: submit a grid, drive it to completion.

The coordinator owns no irreplaceable state — it submits the campaign
(idempotent), supervises a self-healing :class:`WorkerPool` or runs
the worker itself, and looks at the store after each worker exit or
pass (and every :data:`SUPERVISE_SECS` besides) until no runnable work
remains.  Killing the coordinator and re-running :func:`run_campaign`
with the same spec resumes exactly the unfinished jobs and converges
to the same result rows; a *finished* campaign resubmitted later is
served entirely from the result cache (zero new simulations, no worker
started).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Optional, Tuple

from repro.farm.pool import WorkerPool
from repro.farm.spec import CampaignSpec
from repro.farm.store import FarmStore
from repro.farm.worker import FarmConfig, run_worker

#: the coordinator's supervision bound: the longest it goes without a
#: look at the store, and the shortest time between two respawns of one
#: pool slot (an idle worker's own wait is ``worker.IDLE_SECS``)
SUPERVISE_SECS = 0.25


def submit(db_path: str, spec: CampaignSpec,
           diag_dir: Optional[str] = None) -> Tuple[str, Dict[str, int]]:
    """Register *spec*'s jobs; returns ``(campaign_id, counts)``."""
    with FarmStore(db_path, diag_dir=diag_dir) as store:
        return store.submit_campaign(spec)


def collect(db_path: str, campaign: str) -> Dict[str, dict]:
    """``{content_key: result_row}`` for the campaign's done jobs."""
    with FarmStore(db_path) as store:
        return store.rows(campaign)


def run_campaign(
    db_path: str,
    spec: CampaignSpec,
    workers: int = 2,
    config: Optional[FarmConfig] = None,
    on_poll: Optional[Callable[[FarmStore, Optional[WorkerPool]],
                               None]] = None,
    timeout: Optional[float] = None,
) -> Dict[str, dict]:
    """Submit *spec* and drive it to completion; returns its rows.

    A :class:`WorkerPool` of *workers* processes, but no more than there
    are jobs left to run, drains the campaign.  A pool of size 0
    (``workers == 0``) forks nothing: the coordinator runs each pass of
    the worker itself (``run_worker(once=True)``, fully deterministic
    scheduling) — the mode tests and tiny sweeps use.  Either way one
    loop supervises until no job is pending or leased: a pass (or a
    respawn of any dead worker), a look at the store, *on_poll* (the
    chaos battery's hook for killing workers mid-flight; ``None`` stands
    for the pool when there is none), then a wait of at most
    :data:`SUPERVISE_SECS`, which a worker's exit cuts short.  So a
    lease that a killed worker still holds is waited out and its job
    run again, with or without a pool.

    Safe to call again after a coordinator crash — submission is
    idempotent and only unfinished jobs run.  A campaign with nothing
    left to run returns its rows without starting a worker (and without
    calling *on_poll*).
    """
    config = config or FarmConfig()
    with FarmStore(db_path, diag_dir=config.diag_dir) as store:
        cid, _counts = store.submit_campaign(spec)
        deadline = None if timeout is None else time.monotonic() + timeout
        status = store.status(cid)
        size = min(workers, status["pending"] + status["leased"])
        with (WorkerPool(db_path, cid, size, config=config) if size
              else contextlib.nullcontext()) as pool:
            while not store.campaign_done(cid):
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"campaign {cid} still unfinished after "
                        f"{timeout}s: {store.status(cid)}"
                    )
                if pool is None:
                    run_worker(db_path, cid, config=config, once=True)
                else:
                    pool.ensure(min_age=SUPERVISE_SECS)
                if store.campaign_done(cid):
                    break  # drained: no look, no wait
                if on_poll is not None:
                    on_poll(store, pool)
                if pool is None:
                    time.sleep(SUPERVISE_SECS)
                else:
                    pool.wait(SUPERVISE_SECS)
        return store.rows(cid)
