"""Campaign coordination: submit a grid, drive it to completion.

The coordinator owns no irreplaceable state — it submits the campaign
(idempotent), supervises a self-healing :class:`WorkerPool`, and looks
at the store each time a worker exits (and every ``poll_secs`` besides)
until no runnable work remains.  Killing the coordinator and
re-running :func:`run_campaign` with the same spec resumes exactly the
unfinished jobs and converges to the same result rows; a *finished*
campaign resubmitted later is served entirely from the result cache
(zero new simulations, no worker started).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from repro.farm.pool import WorkerPool
from repro.farm.spec import CampaignSpec
from repro.farm.store import FarmStore
from repro.farm.worker import FarmConfig, run_worker


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
    poll_secs: float = 0.25,
    on_poll: Optional[Callable[[FarmStore, WorkerPool], None]] = None,
    timeout: Optional[float] = None,
) -> Dict[str, dict]:
    """Submit *spec* and drive it to completion; returns its rows.

    ``workers == 0`` runs every job inline in this process (no pool,
    fully deterministic scheduling) — the mode tests and tiny sweeps
    use.  Otherwise a :class:`WorkerPool` of *workers* processes, but
    no more than there are jobs left to run, drains the campaign while
    the coordinator supervises: each look respawns any dead worker and
    calls *on_poll* (the chaos battery's hook for killing workers
    mid-flight).

    *poll_secs* is the coordinator's supervision bound: the longest it
    goes without a look (it wakes at once when a worker exits) and the
    shortest time between two respawns of one pool slot.  A worker's
    idle wait between claim attempts is ``FarmConfig.poll_secs``.

    Safe to call again after a coordinator crash — submission is
    idempotent and only unfinished jobs run.  A campaign with nothing
    left to run returns its rows without starting a worker (and without
    calling *on_poll*).
    """
    config = config or FarmConfig()
    with FarmStore(db_path, diag_dir=config.diag_dir) as store:
        cid, _counts = store.submit_campaign(spec)
        if store.campaign_done(cid):
            # served from the result cache (or only quarantined jobs
            # left): nothing to run, so nothing to start
            return store.rows(cid)
        if workers == 0:
            run_worker(db_path, cid, config=config, once=True)
            return store.rows(cid)
        deadline = None if timeout is None else time.monotonic() + timeout
        status = store.status(cid)
        size = min(workers, status["pending"] + status["leased"])
        with WorkerPool(db_path, cid, size, config=config) as pool:
            while not store.campaign_done(cid):
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"campaign {cid} still unfinished after "
                        f"{timeout}s: {store.status(cid)}"
                    )
                pool.ensure(min_age=poll_secs)
                if on_poll is not None:
                    on_poll(store, pool)
                pool.wait(poll_secs)
        return store.rows(cid)
