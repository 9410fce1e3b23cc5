"""The durable job store: SQLite (WAL) leases, retries, result cache.

One database file is the whole farm's persistent state.  Every worker
and the coordinator open their own connection (multi-process safe via
WAL + ``BEGIN IMMEDIATE`` claim transactions), so any process — worker
or coordinator — can be SIGKILLed at any point and the farm converges:

* **Lease-based claiming.**  A claim atomically moves a job to
  ``leased`` with an expiry; a worker that dies (or stalls past its
  lease without heartbeating) simply stops renewing, and the job
  becomes claimable again.  The previous owner is recorded as failure
  evidence on the job.
* **Exactly-once results.**  Results are keyed by the job's content
  address.  The *first* completion inserts the row; any later
  completion of the same key (duplicate execution under an expired
  lease) only bumps a ``duplicates`` counter — the row itself is
  immutable, so the result set can never hold two rows for one job.
  Simulations are deterministic, so a duplicate that does not match
  the stored row bit-for-bit is flagged as a ``result-mismatch``
  failure (a real bug, never silently absorbed).
* **Poison-job quarantine.**  A job that accumulates failures from N
  *distinct* workers (exceptions, expired leases) is quarantined with
  a watchdog-style diagnostic bundle instead of wedging the campaign
  in a retry loop.  Retries back off exponentially (capped) via a
  ``not_before`` gate.
* **Crash-safe campaigns.**  A campaign is just rows; restarting the
  coordinator re-reads them.  ``campaign_done`` is a pure function of
  the store, so resume-after-crash finishes exactly the missing work.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.farm.spec import CampaignSpec, JobSpec, canonical_json

#: distinct-worker failures before a job is quarantined
DEFAULT_QUARANTINE_AFTER = 3
#: capped exponential retry backoff (seconds)
BACKOFF_BASE = 0.25
BACKOFF_CAP = 30.0
#: how long a connection waits for another's write lock (seconds)
DB_TIMEOUT = 30.0
#: the failure an expired lease charges: the worker died, not the job
LEASE_EXPIRED = "lease-expired: worker died or stalled"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id         TEXT PRIMARY KEY,
    spec       TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    key            TEXT NOT NULL,
    campaign       TEXT NOT NULL,
    spec           TEXT NOT NULL,
    state          TEXT NOT NULL DEFAULT 'pending',
    lease_owner    TEXT,
    lease_expiry   REAL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    not_before     REAL NOT NULL DEFAULT 0,
    failed_workers TEXT NOT NULL DEFAULT '[]',
    last_error     TEXT,
    PRIMARY KEY (key, campaign)
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim
    ON jobs (campaign, state, lease_expiry);
CREATE TABLE IF NOT EXISTS results (
    key        TEXT PRIMARY KEY,
    row        TEXT NOT NULL,
    worker     TEXT,
    created_at REAL NOT NULL,
    duplicates INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS failures (
    key      TEXT NOT NULL,
    campaign TEXT NOT NULL,
    worker   TEXT,
    error    TEXT,
    at       REAL NOT NULL
);
"""

#: job states
PENDING, LEASED, DONE, QUARANTINED = (
    "pending", "leased", "done", "quarantined")


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class FarmStore:
    """One process's connection to the farm database."""

    def __init__(self, path: str, diag_dir: Optional[str] = None):
        self.path = path
        self.diag_dir = diag_dir
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(
            path, timeout=DB_TIMEOUT, isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(DB_TIMEOUT * 1000)}")
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "FarmStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internal ------------------------------------------------------

    def _begin(self) -> None:
        # IMMEDIATE takes the write lock up front, so claim/complete
        # read-modify-write sequences are atomic across processes
        self._conn.execute("BEGIN IMMEDIATE")

    def _one(self, sql: str, args: Sequence = ()) -> Optional[tuple]:
        return self._conn.execute(sql, args).fetchone()

    # -- campaigns -----------------------------------------------------

    def submit_campaign(self, spec: CampaignSpec) -> Tuple[str, Dict[str, int]]:
        """Insert *spec*'s grid; returns ``(campaign_id, counts)``.

        Idempotent: the campaign id is the spec's content address, job
        inserts are ``OR IGNORE``.  Jobs whose content key already has
        a cached result are born ``done`` — a re-submitted sweep
        completes with zero new simulations.
        """
        cid = spec.campaign_id()
        jobs = spec.expand()
        counts = {"jobs": len(jobs), "new": 0, "cached": 0, "existing": 0}
        now = time.time()
        self._begin()
        try:
            self._conn.execute(
                "INSERT OR IGNORE INTO campaigns (id, spec, created_at) "
                "VALUES (?, ?, ?)", (cid, spec.to_json(), now))
            for job in jobs:
                key = job.content_key()
                existing = self._one(
                    "SELECT state FROM jobs WHERE key=? AND campaign=?",
                    (key, cid))
                if existing is not None:
                    counts["existing"] += 1
                    continue
                cached = self._one(
                    "SELECT 1 FROM results WHERE key=?", (key,))
                state = DONE if cached else PENDING
                counts["cached" if cached else "new"] += 1
                self._conn.execute(
                    "INSERT INTO jobs (key, campaign, spec, state) "
                    "VALUES (?, ?, ?, ?)",
                    (key, cid, job.to_json(), state))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return cid, counts

    def campaign_spec(self, campaign: str) -> CampaignSpec:
        row = self._one("SELECT spec FROM campaigns WHERE id=?", (campaign,))
        if row is None:
            raise ConfigError(f"unknown campaign {campaign!r} in {self.path}")
        return CampaignSpec.from_json(row[0])

    def campaigns(self) -> List[Tuple[str, CampaignSpec]]:
        rows = self._conn.execute(
            "SELECT id, spec FROM campaigns ORDER BY created_at, id"
        ).fetchall()
        return [(cid, CampaignSpec.from_json(spec)) for cid, spec in rows]

    # -- claiming / leases ---------------------------------------------

    def claim(
        self,
        campaign: str,
        worker: str,
        lease_secs: float,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        now: Optional[float] = None,
    ) -> Optional[Tuple[str, JobSpec]]:
        """Atomically lease the next runnable job, or None.

        Runnable = ``pending`` past its retry backoff, or ``leased``
        with an expired lease (the previous owner is then charged a
        failure — it died or stalled).  A job whose content key gained
        a cached result meanwhile is completed in place; a job whose
        distinct-worker failure count reaches *quarantine_after* is
        quarantined (with a diagnostic bundle) and skipped.
        """
        while True:
            t = time.time() if now is None else now
            self._begin()
            try:
                row = self._one(
                    "SELECT key, spec, state, lease_owner, failed_workers,"
                    " attempts FROM jobs"
                    " WHERE campaign=? AND"
                    "  ((state='pending' AND not_before<=?) OR"
                    "   (state='leased' AND lease_expiry<=?))"
                    " ORDER BY key LIMIT 1",
                    (campaign, t, t))
                if row is None:
                    self._conn.execute("COMMIT")
                    return None
                key, spec_json, state, prev_owner, fw_json, attempts = row
                if self._one("SELECT 1 FROM results WHERE key=?", (key,)):
                    # cache filled in while this job sat queued
                    self._conn.execute(
                        "UPDATE jobs SET state='done', lease_owner=NULL,"
                        " lease_expiry=NULL WHERE key=? AND campaign=?",
                        (key, campaign))
                    self._conn.execute("COMMIT")
                    continue
                failed = json.loads(fw_json)
                if state == LEASED and prev_owner:
                    # expired lease: the owner died or stalled — that
                    # is this job's failure evidence for quarantine
                    failed.append(prev_owner)
                    self._conn.execute(
                        "INSERT INTO failures (key, campaign, worker,"
                        " error, at) VALUES (?, ?, ?, ?, ?)",
                        (key, campaign, prev_owner, LEASE_EXPIRED, t))
                if len(set(failed)) >= quarantine_after:
                    self._quarantine(key, campaign, spec_json, failed, t,
                                     last_error=LEASE_EXPIRED)
                    self._conn.execute("COMMIT")
                    continue
                self._conn.execute(
                    "UPDATE jobs SET state='leased', lease_owner=?,"
                    " lease_expiry=?, attempts=?, failed_workers=?"
                    " WHERE key=? AND campaign=?",
                    (worker, t + lease_secs, attempts + 1,
                     json.dumps(failed), key, campaign))
                self._conn.execute("COMMIT")
                return key, JobSpec.from_json(spec_json)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def heartbeat(self, key: str, campaign: str, worker: str,
                  lease_secs: float) -> bool:
        """Extend *worker*'s lease; False when the lease was lost
        (expired and reassigned) — the worker may keep running, its
        completion is still idempotent."""
        cur = self._conn.execute(
            "UPDATE jobs SET lease_expiry=? WHERE key=? AND campaign=?"
            " AND state='leased' AND lease_owner=?",
            (time.time() + lease_secs, key, campaign, worker))
        return cur.rowcount > 0

    # -- completion / failure ------------------------------------------

    def complete(self, key: str, campaign: str, worker: str,
                 row: dict) -> str:
        """Record a finished job; returns ``inserted`` | ``duplicate``
        | ``mismatch``.

        Exactly-once by content key: the first completion wins, later
        identical completions only count a duplicate.  A later
        completion whose row differs bit-for-bit is a determinism bug
        — kept out of the result set and recorded as a failure.
        """
        row_json = canonical_json(row)
        t = time.time()
        self._begin()
        try:
            existing = self._one(
                "SELECT row FROM results WHERE key=?", (key,))
            if existing is None:
                self._conn.execute(
                    "INSERT INTO results (key, row, worker, created_at)"
                    " VALUES (?, ?, ?, ?)", (key, row_json, worker, t))
                status = "inserted"
            else:
                self._conn.execute(
                    "UPDATE results SET duplicates=duplicates+1"
                    " WHERE key=?", (key,))
                status = "duplicate" if existing[0] == row_json else "mismatch"
                if status == "mismatch":
                    self._conn.execute(
                        "INSERT INTO failures (key, campaign, worker,"
                        " error, at) VALUES (?, ?, ?, ?, ?)",
                        (key, campaign, worker,
                         "result-mismatch: duplicate execution produced a"
                         " different row (non-deterministic job)", t))
            # the result satisfies this key everywhere it appears
            self._conn.execute(
                "UPDATE jobs SET state='done', lease_owner=NULL,"
                " lease_expiry=NULL WHERE key=?", (key,))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return status

    def fail(
        self,
        key: str,
        campaign: str,
        worker: str,
        error: str,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ) -> str:
        """Record a job failure; returns the job's new state.

        The job goes back to ``pending`` behind a capped-exponential
        ``not_before`` gate, or to ``quarantined`` once failures span
        *quarantine_after* distinct workers.
        """
        t = time.time()
        self._begin()
        try:
            row = self._one(
                "SELECT spec, attempts, failed_workers FROM jobs"
                " WHERE key=? AND campaign=?", (key, campaign))
            if row is None:
                raise ConfigError(f"unknown job {key!r} in {campaign!r}")
            spec_json, attempts, fw_json = row
            failed = json.loads(fw_json)
            failed.append(worker)
            self._conn.execute(
                "INSERT INTO failures (key, campaign, worker, error, at)"
                " VALUES (?, ?, ?, ?, ?)", (key, campaign, worker, error, t))
            if len(set(failed)) >= quarantine_after:
                self._quarantine(key, campaign, spec_json, failed, t,
                                 last_error=error)
                state = QUARANTINED
            else:
                # exponent clamped: past ~2^32 the cap always wins and
                # an unclamped big int would overflow float conversion
                backoff = min(BACKOFF_CAP,
                              BACKOFF_BASE
                              * (2.0 ** min(max(0, attempts - 1), 32)))
                self._conn.execute(
                    "UPDATE jobs SET state='pending', lease_owner=NULL,"
                    " lease_expiry=NULL, not_before=?, failed_workers=?,"
                    " last_error=? WHERE key=? AND campaign=?",
                    (t + backoff, json.dumps(failed), error, key, campaign))
                state = PENDING
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return state

    def _quarantine(self, key: str, campaign: str, spec_json: str,
                    failed: List[str], now: float,
                    last_error: Optional[str] = None) -> None:
        """Park a poison job and write its diagnostic bundle (inside
        the caller's transaction)."""
        self._conn.execute(
            "UPDATE jobs SET state='quarantined', lease_owner=NULL,"
            " lease_expiry=NULL, failed_workers=?, last_error=?"
            " WHERE key=? AND campaign=?",
            (json.dumps(failed), last_error, key, campaign))
        if not self.diag_dir:
            return
        history = self._conn.execute(
            "SELECT worker, error, at FROM failures WHERE key=?"
            " ORDER BY at", (key,)).fetchall()
        bundle = {
            "kind": "farm-quarantine",
            "key": key,
            "campaign": campaign,
            "spec": json.loads(spec_json),
            "distinct_failed_workers": sorted(set(failed)),
            "failures": [
                {"worker": w, "error": e, "at": at} for w, e, at in history
            ],
            "last_error": last_error,
            "quarantined_at": now,
        }
        try:
            os.makedirs(self.diag_dir, exist_ok=True)
            path = os.path.join(self.diag_dir,
                                f"quarantine_{key[:12]}.json")
            with open(path, "w") as fh:
                json.dump(bundle, fh, indent=1, sort_keys=True)
                fh.write("\n")
        except OSError:  # diagnostics never take the farm down
            pass

    # -- progress / results --------------------------------------------

    def status(self, campaign: str) -> Dict[str, object]:
        states = dict(self._conn.execute(
            "SELECT state, COUNT(*) FROM jobs WHERE campaign=?"
            " GROUP BY state", (campaign,)).fetchall())
        total = sum(states.values())
        attempts, = self._one(
            "SELECT COALESCE(SUM(attempts), 0) FROM jobs WHERE campaign=?",
            (campaign,))
        dup_row = self._one(
            "SELECT COALESCE(SUM(r.duplicates), 0) FROM results r"
            " WHERE r.key IN (SELECT key FROM jobs WHERE campaign=?)",
            (campaign,))
        return {
            "campaign": campaign,
            "total": total,
            "pending": states.get(PENDING, 0),
            "leased": states.get(LEASED, 0),
            "done": states.get(DONE, 0),
            "quarantined": states.get(QUARANTINED, 0),
            "attempts": attempts,
            "duplicates": dup_row[0],
        }

    def campaign_done(self, campaign: str) -> bool:
        """No runnable or running work left (all done or quarantined)."""
        row = self._one(
            "SELECT 1 FROM jobs WHERE campaign=? AND state IN"
            " ('pending', 'leased') LIMIT 1", (campaign,))
        return row is None

    def rows(self, campaign: str) -> Dict[str, dict]:
        """``{content_key: result_row}`` for the campaign's done jobs."""
        out: Dict[str, dict] = {}
        for key, row_json in self._conn.execute(
            "SELECT j.key, r.row FROM jobs j JOIN results r ON r.key=j.key"
            " WHERE j.campaign=? AND j.state='done' ORDER BY j.key",
            (campaign,),
        ).fetchall():
            out[key] = json.loads(row_json)
        return out

    def quarantined(self, campaign: str) -> List[Dict[str, object]]:
        rows = self._conn.execute(
            "SELECT key, spec, failed_workers, last_error FROM jobs"
            " WHERE campaign=? AND state='quarantined' ORDER BY key",
            (campaign,)).fetchall()
        return [
            {"key": key, "spec": json.loads(spec),
             "failed_workers": json.loads(fw), "last_error": err}
            for key, spec, fw, err in rows
        ]

    def errors(self, campaign: str, since: float = 0.0) -> Dict[str, str]:
        """``{key: error}``: the latest failure recorded at or after
        *since* of each of the campaign's unfinished jobs."""
        return dict(self._conn.execute(
            "SELECT f.key, f.error FROM failures f JOIN jobs j"
            " ON j.key=f.key AND j.campaign=f.campaign"
            " WHERE f.campaign=? AND f.at>=? AND j.state!='done'"
            " ORDER BY f.at", (campaign, since)).fetchall())

    def result_count(self) -> int:
        return self._one("SELECT COUNT(*) FROM results")[0]

    def duplicates_total(self) -> int:
        return self._one(
            "SELECT COALESCE(SUM(duplicates), 0) FROM results")[0]

    # -- gc ------------------------------------------------------------

    def gc(self, prune_cache: bool = False,
           drop_done_campaigns: bool = True) -> Dict[str, int]:
        """Housekeeping: drop finished campaigns' job rows, optionally
        prune unreferenced cache rows.

        Expired leases stay as they are: the next :meth:`claim` takes
        each over and charges its dead owner, which is the evidence
        quarantine counts.  The result cache is kept by default — it is
        the point of the farm (re-submitted sweeps are free);
        ``prune_cache`` removes rows no surviving job references.
        """
        summary = {"campaigns_dropped": 0, "jobs_dropped": 0,
                   "results_pruned": 0}
        self._begin()
        try:
            if drop_done_campaigns:
                done = [
                    cid for (cid,) in self._conn.execute(
                        "SELECT id FROM campaigns").fetchall()
                    if self.campaign_done(cid)
                ]
                for cid in done:
                    cur = self._conn.execute(
                        "DELETE FROM jobs WHERE campaign=?", (cid,))
                    summary["jobs_dropped"] += cur.rowcount
                    self._conn.execute(
                        "DELETE FROM failures WHERE campaign=?", (cid,))
                    self._conn.execute(
                        "DELETE FROM campaigns WHERE id=?", (cid,))
                summary["campaigns_dropped"] = len(done)
            if prune_cache:
                cur = self._conn.execute(
                    "DELETE FROM results WHERE key NOT IN"
                    " (SELECT key FROM jobs)")
                summary["results_pruned"] = cur.rowcount
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("VACUUM")
        return summary
