"""A farm worker: claim → heartbeat → execute → complete, forever.

Workers are crash-only processes.  They hold no state the store does
not: a worker SIGKILLed at *any* point loses at most its current lease,
which expires and the job is reassigned.  One heartbeat thread per
worker (its own store connection — SQLite connections are not
thread-safe — opened only if a renewal comes due) renews the lease of a
job that has run for ``lease_secs / 3``, so a long job under a short
lease is safe as long as the worker is actually alive, and a short job
pays for neither thread nor connection; a *stalled-but-alive* worker
that stops heartbeating loses the lease, someone else runs the job, and
the content-addressed result store absorbs the duplicate completion
(exactly-once rows).
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.farm import store as store_mod
from repro.farm.exec import execute_job
from repro.farm.store import FarmStore


#: an idle worker's wait between claim attempts while every remaining
#: job is leased or backing off (the coordinator's own wait is
#: ``campaign.SUPERVISE_SECS``)
IDLE_SECS = 0.5


@dataclass(frozen=True)
class FarmConfig:
    """What ``repro farm`` sets, shared by workers and the coordinator."""

    #: lease duration; heartbeats renew at a third of this
    lease_secs: float = 15.0
    #: distinct-worker failures before quarantine
    quarantine_after: int = store_mod.DEFAULT_QUARANTINE_AFTER
    #: where quarantine bundles and chaos diagnostics land
    diag_dir: Optional[str] = None

    @property
    def heartbeat_secs(self) -> float:
        return max(0.05, self.lease_secs / 3.0)


@dataclass
class WorkerStats:
    #: rows this worker inserted (a duplicate completion is counted by
    #: the store's ``results.duplicates``)
    completed: int = 0
    failed: int = 0
    #: lease renewals that raised ``sqlite3.Error`` (retried next interval)
    heartbeat_errors: int = 0


class _Heartbeat:
    """One worker's lease renewer, armed with each claimed job in turn.

    A claim already grants ``lease_secs``, so only a job still running
    ``heartbeat_secs`` after it was armed is renewed, and the thread's
    store connection is opened at that first renewal.  The lock is held
    across a renewal: once a :meth:`renewing` block is left, no renewal
    of its job is in flight or will be issued.
    """

    def __init__(self, db_path: str, campaign: str, worker: str,
                 config: FarmConfig, stats: WorkerStats):
        self._db_path = db_path
        self._lease = (campaign, worker, config.lease_secs)
        self._config = config
        self._stats = stats
        self._lock = threading.Lock()
        self._key: Optional[str] = None  # the armed job, and when its
        self._due = 0.0  # next renewal falls (monotonic): under _lock
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        # at most one renewal (store.DB_TIMEOUT) away; a caller that
        # forks later must not carry a thread into the child
        self._thread.join()

    @contextlib.contextmanager
    def renewing(self, key: str):
        """Keep *key*'s lease alive for as long as the block runs."""
        with self._lock:
            self._key = key
            self._due = time.monotonic() + self._config.heartbeat_secs
        try:
            yield
        finally:
            with self._lock:
                self._key = None

    def _run(self) -> None:
        interval = wait = self._config.heartbeat_secs
        store = None  # this thread's own connection
        try:
            while not self._stop.wait(wait):
                with self._lock:
                    wait = interval
                    if self._key is None:
                        continue
                    now = time.monotonic()
                    if now < self._due:
                        wait = self._due - now
                        continue
                    self._due = now + interval
                    try:
                        if store is None:
                            store = FarmStore(self._db_path)
                        # a lost lease is not fatal: the job may run
                        # twice, and completion is idempotent
                        store.heartbeat(self._key, *self._lease)
                    except sqlite3.Error:
                        # the thread guards every later job too: count
                        # it and try again an interval later
                        self._stats.heartbeat_errors += 1
        finally:
            if store is not None:
                store.close()


def run_worker(
    db_path: str,
    campaign: str,
    config: Optional[FarmConfig] = None,
    worker: Optional[str] = None,
    once: bool = False,
) -> WorkerStats:
    """Drain jobs from *campaign* until it is done.

    With *once* the worker returns the first time nothing is claimable
    instead of waiting :data:`IDLE_SECS` and trying again — pool
    workers wait, the inline coordinator and tests use *once*.
    """
    config = config or FarmConfig()
    worker = worker or store_mod.default_worker_id()
    stats = WorkerStats()
    with FarmStore(db_path, diag_dir=config.diag_dir) as store, \
            _Heartbeat(db_path, campaign, worker, config,
                       stats) as heartbeat:
        while True:
            claimed = store.claim(
                campaign, worker, config.lease_secs,
                quarantine_after=config.quarantine_after,
            )
            if claimed is None:
                if once or store.campaign_done(campaign):
                    return stats
                time.sleep(IDLE_SECS)  # backoff-gated retries
                continue
            key, spec = claimed
            try:
                with heartbeat.renewing(key):
                    row = execute_job(spec, diag_dir=config.diag_dir)
            except BaseException as exc:
                stats.failed += 1
                store.fail(
                    key, campaign, worker,
                    f"{type(exc).__name__}: {exc}",
                    quarantine_after=config.quarantine_after,
                )
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                continue
            if store.complete(key, campaign, worker, row) == "inserted":
                stats.completed += 1


def worker_main(db_path: str, campaign: str, config: FarmConfig,
                worker: str) -> None:
    """Entry point for pool-spawned worker processes."""
    run_worker(db_path, campaign, config=config, worker=worker)
