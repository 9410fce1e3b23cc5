"""Self-healing worker pool.

The coordinator keeps *n* worker processes alive for the duration of a
campaign.  Workers are expendable: :meth:`WorkerPool.ensure` respawns
any that exited — cleanly, by exception, or by SIGKILL — under a fresh
worker id, so a kill-happy environment only costs lease timeouts, never
progress.  The pool deliberately does **not** inspect exit codes to
decide whether work was lost; the store's lease protocol is the single
source of truth for that.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection
from typing import List, Optional

from repro.farm.worker import FarmConfig, worker_main

_CTX = multiprocessing.get_context("fork")


class WorkerPool:
    def __init__(self, db_path: str, campaign: str, size: int,
                 config: Optional[FarmConfig] = None):
        self.db_path = db_path
        self.campaign = campaign
        self.size = size
        self.config = config or FarmConfig()
        self.procs: List[multiprocessing.Process] = []
        #: when each slot of ``procs`` was last filled (monotonic)
        self._spawned_at: List[float] = []
        #: workers respawned after dying (the self-healing counter)
        self.respawns = 0
        self._serial = 0

    def _spawn(self) -> multiprocessing.Process:
        self._serial += 1
        wid = f"farm-w{self._serial}"
        proc = _CTX.Process(
            target=worker_main,
            args=(self.db_path, self.campaign, self.config, wid),
            name=wid,
            daemon=True,
        )
        proc.start()
        return proc

    def start(self) -> None:
        self.procs = [self._spawn() for _ in range(self.size)]
        self._spawned_at = [time.monotonic()] * self.size

    def ensure(self, min_age: float = 0.0) -> int:
        """Respawn dead workers; returns how many are alive now.  A
        slot filled under *min_age* seconds ago waits its turn: a worker
        dying at start-up costs one fork per *min_age*, not a storm."""
        now = time.monotonic()
        alive = 0
        for slot, proc in enumerate(self.procs):
            if proc.is_alive():
                alive += 1
            elif now - self._spawned_at[slot] >= min_age:
                proc.join(timeout=0)
                self.respawns += 1
                self.procs[slot] = self._spawn()
                self._spawned_at[slot] = now
                alive += 1
        return alive

    def wait(self, timeout: float) -> None:
        """Block until a live worker exits, *timeout* seconds at most."""
        connection.wait(
            [p.sentinel for p in self.procs if p.is_alive()], timeout)

    def alive(self) -> int:
        return sum(1 for p in self.procs if p.is_alive())

    def stop(self, timeout: float = 10.0) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=timeout)
        self.procs = []

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
