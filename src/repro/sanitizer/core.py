"""The sanitizer proper: invariant checks, cadence, escalation.

Checks run on two cadences:

* **sampling** — :meth:`Sanitizer.check_all` runs the full sweep every
  ``interval`` cycles as a check on ``EventQueue.every`` (the one
  periodic mechanism, label ``"sanitizer"``, armed by ``Machine.run``
  after the watchdog), and once more over the quiesced or cut-off
  machine at the end of the run;
* **on-transition** — cheap, targeted checks fire synchronously at the
  protocol's natural commit points: a directory transaction releasing
  its line, a PutM merging, an invalidation answered at an L1, a weak
  fence retiring/completing, a W+ recovery, a write-buffer push.

Everything the sanitizer reads is read **only**: cache lookups peek
(``touch=False``, no LRU movement), directory entries are taken from
``bank.entries`` directly (``dir_state()`` would *create* entries), and
busy lines — mid-transaction, legitimately inconsistent — are skipped.
Directory state is deliberately allowed to *over*-approximate the L1s
(silent clean evictions, keep-sharer writebacks and BS amplification
all leave stale directory presence by design), so the cross-checks only
run in the airtight direction: an L1-resident line must be tracked, and
a writable copy must be the registered owner.

Escalation: ``warn`` records violations and keeps going, ``strict``
raises :class:`~repro.common.errors.SanitizerError` at the first one.
The first violation's diagnostics are the machine's post-mortem snapshot
(``sim.deadlock.snapshot_diagnostics``, the watchdog's bundle format)
plus the violation record, so the exact cycle, core and line land in the
same tooling, optionally as a ``sanitizer_*.json`` artifact in
``Machine.diag_dir``.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

from repro.common.errors import ConfigError, SanitizerError
from repro.sim.deadlock import snapshot_diagnostics, write_bundle

#: default sampling cadence (cycles between full sweeps)
DEFAULT_INTERVAL = 5_000

#: any pending event this far in the future is structurally
#: undeliverable: legitimate latencies are bounded by small constants
#: (NoC jitter <= 40, retry backoff cap 256, watchdog interval 50k) —
#: only a dropped message (modeled as delivery at now + 10^9) or a
#: corrupted timestamp can sit a million cycles out.
EVENT_HORIZON = 1_000_000

#: escalation modes (the CLI exposes ``off`` by not attaching at all)
MODES = ("warn", "strict")

#: violation-list cap: diagnostics want the first few, not a flood
MAX_VIOLATIONS = 64


def sanitize_mode(flag: Optional[str] = None) -> str:
    """The sanitizer mode a command runs under: *flag* when given, else
    ``REPRO_SANITIZE``, else ``"off"``.

    The one reader of that variable.  Commands resolve the mode here
    once and hand it down as a value — into ``run_workload``, and into
    the config (so the content key) of every farm job they submit — so
    no worker ever consults its own environment.  An unknown mode is a
    :class:`ConfigError`, which the CLI reports as a usage error.
    """
    mode = flag or os.environ.get("REPRO_SANITIZE") or "off"
    if mode != "off" and mode not in MODES:
        raise ConfigError(
            f"unknown sanitizer mode {mode!r}; choose from {MODES}")
    return mode


class Sanitizer:
    """Structural-invariant checker for one :class:`Machine`."""

    def __init__(self, mode: str = "strict", interval: int = DEFAULT_INTERVAL):
        if mode not in MODES:
            raise ValueError(
                f"unknown sanitizer mode {mode!r}; choose from {MODES}"
            )
        self.mode = mode
        self.interval = interval
        self.horizon = EVENT_HORIZON
        self.max_violations = MAX_VIOLATIONS
        self.machine = None
        #: violation records (dicts with invariant/cycle/core/line/detail)
        self.violations: List[dict] = []
        #: violations beyond the cap (counted, not stored)
        self.dropped = 0
        #: full sweeps run / targeted transition checks run
        self.sweeps = 0
        self.transition_checks = 0
        #: first-violation bundle (watchdog format + violation record)
        self.first_diagnostics: Optional[dict] = None
        self.first_diagnostics_path: Optional[str] = None

    def bind(self, machine) -> "Sanitizer":
        self.machine = machine
        return self

    # ------------------------------------------------------------------
    # escalation
    # ------------------------------------------------------------------

    @property
    def first_violation(self) -> Optional[dict]:
        return self.violations[0] if self.violations else None

    def _report(self, invariant: str, core=None, line=None,
                detail: str = "") -> None:
        machine = self.machine
        cycle = machine.queue.now if machine is not None else 0
        violation = {
            "invariant": invariant,
            "cycle": cycle,
            "core": core,
            "line": line,
            "detail": detail,
        }
        first = not self.violations
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        else:
            self.dropped += 1
        message = describe_violation(violation)
        if first and machine is not None:
            diagnostics = snapshot_diagnostics(machine)
            diagnostics["violation"] = violation
            self.first_diagnostics = diagnostics
            self.first_diagnostics_path = write_bundle(
                machine, "sanitizer", diagnostics)
            if machine.tracer is not None:
                machine.tracer.sanitizer_violation(core, invariant, violation)
        if self.mode == "strict":
            raise SanitizerError(
                message,
                violation=violation,
                diagnostics=self.first_diagnostics,
                diagnostics_path=self.first_diagnostics_path,
            )
        if first:
            print(f"sanitizer: {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    # the full sweep
    # ------------------------------------------------------------------

    def check_all(self) -> None:
        """Run every invariant check once (the periodic sweep, and the
        closing one at the end of a run)."""
        self.sweeps += 1
        machine = self.machine
        self._check_queue()
        for core in machine.cores:
            self._check_core(core)
        self._check_memory_system()

    # --- event queue ---------------------------------------------------

    def _check_queue(self) -> None:
        queue = self.machine.queue
        now = queue.now
        head = queue.peek_time()
        if head is None:
            return
        if head < now:
            self._report(
                "queue-time-monotonic",
                detail=f"pending event at t={head} behind now={now}",
            )
        horizon = now + self.horizon
        for t, label in queue.pending_events():
            if t > horizon:
                self._report(
                    "event-horizon",
                    detail=(
                        f"{label or 'event'} scheduled {t - now} cycles "
                        f"out (t={t}) — undeliverable, a lost message"
                    ),
                )
                break

    # --- per-core state ------------------------------------------------

    def _check_core(self, core) -> None:
        cid = core.core_id
        entries = core.wb._entries
        prev = None
        for i, e in enumerate(entries):
            if prev is not None and e.store_id <= prev.store_id:
                self._report(
                    "wb-fifo", core=cid, line=e.line,
                    detail=f"store id {e.store_id} after {prev.store_id}",
                )
            if i > 0 and e.issued:
                self._report(
                    "wb-issue-head", core=cid, line=e.line,
                    detail=f"non-head store {e.store_id} marked issued",
                )
            if e.bouncing and not e.issued:
                self._report(
                    "wb-issue-head", core=cid, line=e.line,
                    detail=f"store {e.store_id} bouncing but never issued",
                )
            prev = e
        if len(entries) > core.wb.capacity:
            self._report(
                "wb-overflow", core=cid,
                detail=f"{len(entries)} entries in a "
                       f"{core.wb.capacity}-entry buffer",
            )

        pfs = core.pending_fences
        prev_pf = None
        for pf in pfs:
            if prev_pf is not None and (
                    pf.fence_id <= prev_pf.fence_id
                    or pf.last_store_id < prev_pf.last_store_id):
                self._report(
                    "fence-retire-order", core=cid,
                    detail=(
                        f"fence {pf.fence_id} (last store "
                        f"{pf.last_store_id}) after fence "
                        f"{prev_pf.fence_id} ({prev_pf.last_store_id})"
                    ),
                )
            prev_pf = pf

        bs = core.bs
        if not bs.empty:
            if not pfs:
                line = next(iter(bs._entries))
                self._report(
                    "bs-outside-episode", core=cid, line=line,
                    detail=f"{len(bs)} BS line(s) with no incomplete wf",
                )
            else:
                lo, hi = pfs[0].fence_id, pfs[-1].fence_id
                for line, entry in bs._entries.items():
                    if not lo <= entry.fence_id <= hi:
                        self._report(
                            "bs-stale-tag", core=cid, line=line,
                            detail=(
                                f"entry tagged fence {entry.fence_id}, "
                                f"pending window [{lo}, {hi}]"
                            ),
                        )
                        break
        if bs.fine_grain != core.policy.fine_grain_bs:
            self._report(
                "bs-grain-mismatch", core=cid,
                detail=(
                    f"BS fine_grain={bs.fine_grain} but "
                    f"{core.policy.design.value} expects "
                    f"{core.policy.fine_grain_bs} (word-granularity BS "
                    f"is SW+ only)"
                ),
            )
        if core.recovering:
            # W+ recovery-drain completeness: the rollback cleared the
            # fences and the BS synchronously; only the pre-checkpoint
            # stores may still be draining.
            if pfs:
                self._report(
                    "recovery-drain", core=cid,
                    detail=f"{len(pfs)} pending fence(s) during recovery",
                )
            if not bs.empty:
                self._report(
                    "recovery-drain", core=cid,
                    detail=f"BS holds {len(bs)} line(s) during recovery",
                )
        for invariant, line, detail in core.policy.sanitizer_check():
            self._report(invariant, core=cid, line=line, detail=detail)

    # --- directory <-> L1 cross-checks ---------------------------------

    def _check_memory_system(self) -> None:
        machine = self.machine
        for bank in machine.banks:
            busy = bank._busy
            for line, entry in bank.entries.items():
                if line in busy:
                    continue
                if entry.owner is not None and entry.owner in entry.sharers:
                    self._report(
                        "dir-owner-in-sharers", core=entry.owner, line=line,
                        detail=f"bank {bank.bank_id}: owner also a sharer",
                    )
        banks = machine.banks
        amap = machine.amap
        for l1 in machine.l1s:
            cid = l1.core_id
            for line, state in l1.cache.lines():
                bank = banks[amap.home_bank(line)]
                if line in bank._busy:
                    continue  # mid-transaction: legitimately in flux
                self._check_line_presence(bank, line, cid, state)
        self._check_grt()

    def _check_line_presence(self, bank, line, cid, state) -> None:
        entry = bank.entries.get(line)
        if entry is None or (cid != entry.owner and cid not in entry.sharers):
            tracked = "nothing" if entry is None else (
                f"owner={entry.owner} sharers={sorted(entry.sharers)}"
            )
            self._report(
                "dir-lost-sharer", core=cid, line=line,
                detail=(
                    f"L1 holds {state.value} but bank {bank.bank_id} "
                    f"tracks {tracked}"
                ),
            )
        elif state.writable and entry.owner != cid:
            self._report(
                "dir-single-writer", core=cid, line=line,
                detail=(
                    f"L1 holds {state.value} but bank {bank.bank_id} "
                    f"registers owner={entry.owner}"
                ),
            )

    def _check_grt(self) -> None:
        """Wee GRT confinement: one deposit module per dynamic fence."""
        machine = self.machine
        if machine.params.wee_ideal:
            return  # the idealized ablation reads a global view
        seen = {}
        for bank in machine.banks:
            for key in bank.grt:
                if key in seen:
                    core, fence_id = key
                    self._report(
                        "grt-confinement", core=core,
                        detail=(
                            f"fence {fence_id} deposited at banks "
                            f"{seen[key]} and {bank.bank_id}"
                        ),
                    )
                else:
                    seen[key] = bank.bank_id

    # ------------------------------------------------------------------
    # on-transition hooks (targeted; called behind ``sanitizer is None``
    # guards at the protocol's commit points)
    # ------------------------------------------------------------------

    def on_core_transition(self, core) -> None:
        """A fence retired/completed or a recovery changed core state."""
        self.transition_checks += 1
        self._check_core(core)

    def on_recovery_resume(self, core) -> None:
        """A W+ recovery finished draining and the thread resumes."""
        self.transition_checks += 1
        if core.wb._entries:
            self._report(
                "recovery-drain", core=core.core_id,
                detail=(
                    f"{len(core.wb._entries)} store(s) still buffered at "
                    "recovery resume"
                ),
            )
        self._check_core(core)

    def on_dir_transition(self, bank, line) -> None:
        """A directory transaction released *line* (or a PutM merged)."""
        self.transition_checks += 1
        if line in bank._busy:
            return  # a waiter was promoted: state is in flux again
        entry = bank.entries.get(line)
        if entry is None:
            return
        if entry.owner is not None and entry.owner in entry.sharers:
            self._report(
                "dir-owner-in-sharers", core=entry.owner, line=line,
                detail=f"bank {bank.bank_id}: owner also a sharer",
            )
        for l1 in self.machine.l1s:
            state = l1.cache.lookup(line, touch=False)
            if state is not None:
                self._check_line_presence(bank, line, l1.core_id, state)

    def on_l1_inv(self, l1, line, keep_sharer: bool) -> None:
        """An invalidation was answered with ACK or KEEP_SHARER."""
        self.transition_checks += 1
        if l1.cache.lookup(line, touch=False) is not None:
            self._report(
                "inv-left-copy", core=l1.core_id, line=line,
                detail="cache still holds the line after invalidation",
            )
        if keep_sharer and not l1.bs.match_line(line):
            self._report(
                "inv-keep-sharer", core=l1.core_id, line=line,
                detail="KEEP_SHARER answered without a BS match",
            )

    def on_wb_push(self, wb) -> None:
        """A store was appended to a write buffer."""
        entries = wb._entries
        if len(entries) >= 2 and entries[-1].store_id <= entries[-2].store_id:
            self._report(
                "wb-fifo", core=wb.core_id, line=entries[-1].line,
                detail=(
                    f"pushed store id {entries[-1].store_id} after "
                    f"{entries[-2].store_id}"
                ),
            )
        if len(entries) > wb.capacity:
            self._report(
                "wb-overflow", core=wb.core_id, line=entries[-1].line,
                detail=f"{len(entries)} entries in a "
                       f"{wb.capacity}-entry buffer",
            )


def describe_violation(violation: dict) -> str:
    """One-line human rendering of a violation record."""
    parts = [f"{violation['invariant']} at cycle {violation['cycle']}"]
    if violation.get("core") is not None:
        parts.append(f"core {violation['core']}")
    if violation.get("line") is not None:
        parts.append(f"line {violation['line']:#x}")
    head = ", ".join(parts)
    detail = violation.get("detail")
    return f"{head}: {detail}" if detail else head
