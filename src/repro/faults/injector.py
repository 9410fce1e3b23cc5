"""The deterministic fault-decision engine.

Every hook site in the machine asks the injector "does a fault fire
here?".  Decisions are pure functions of ``(plan.seed, site, n)`` where
*n* is the per-site call counter — a splitmix64-style hash, not a
sequential RNG stream — so:

* the exact same faults replay from ``(scenario, seed)`` alone;
* each fired injection has a stable identity ``(site, n)`` that the
  chaos shrinker can subset: re-running with ``allowed={...}`` applies
  only those injections (the per-site counters still advance on every
  call, keeping identities aligned between runs as far as the timing
  drift the removed faults cause allows — the usual ddmin caveat).

The injector also hosts the *degradation-response* shaping: capped
exponential retry backoff and the W+ timeout perturbation, both
deterministic transformations rather than random events.

Fired injections are appended to :attr:`FaultInjector.log` and, when a
tracer is attached, emitted as ``fault_*`` instants on the lane of the
component that absorbed them.
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Optional, Set, Tuple

from repro.faults.plan import DROP_CYCLES, FaultPlan
from repro.obs.tracer import TRACK_DIR_BASE, TRACK_NOC

_MASK64 = (1 << 64) - 1

#: injection sites (the log/allow-list key namespace)
SITE_NOC_DELAY = "noc_delay"
SITE_NOC_DROP = "noc_drop"
SITE_DIR_NACK = "dir_nack"
SITE_BS_AMP = "bs_amp"


def _mix(x: int) -> int:
    """splitmix64 finalizer: one well-mixed 64-bit word from *x*."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class FaultInjector:
    """Deterministic per-site fault decisions for one machine run.

    *allowed* restricts firing to a subset of ``(site, n)`` keys — the
    replay mode the ddmin shrinker uses.  ``None`` means unrestricted.
    """

    def __init__(
        self,
        plan: FaultPlan,
        allowed: Optional[Iterable[Tuple[str, int]]] = None,
    ):
        self.plan = plan
        self.allowed: Optional[Set[Tuple[str, int]]] = (
            None if allowed is None else set(allowed)
        )
        #: fired injections, in firing order: (site, n) keys
        self.log: List[Tuple[str, int]] = []
        #: per-site call counters (advance on every consultation,
        #: fired or not — they define injection identity)
        self.counts = {
            SITE_NOC_DELAY: 0, SITE_NOC_DROP: 0,
            SITE_DIR_NACK: 0, SITE_BS_AMP: 0,
        }
        #: remaining budgets for the budgeted sites
        self._nack_budget = plan.dir_nack_budget
        self._amp_budget = plan.bs_amp_budget
        self._drop_budget = plan.noc_drop_budget
        #: set by Machine.attach_faults when a tracer is attached
        self.tracer = None
        # per-site hash bases: seed and site folded once, off the
        # per-decision path (zlib.crc32 is stable across processes,
        # unlike hash() on str)
        self._base = {
            site: _mix((plan.seed & _MASK64) * 0x9E3779B97F4A7C15
                       + zlib.crc32(site.encode()))
            for site in self.counts
        }

    # ------------------------------------------------------------------
    # decision core
    # ------------------------------------------------------------------

    def _decide(self, site: str, rate: float) -> Tuple[bool, int, int]:
        """One consultation of *site*: (fired, n, draw).

        *draw* is the full 64-bit hash so callers can derive fault
        magnitudes from its upper bits without a second lookup.
        """
        n = self.counts[site]
        self.counts[site] = n + 1
        draw = _mix(self._base[site] + n * 0xD1B54A32D192ED03)
        if (draw & 0xFFFFFFFF) >= int(rate * 4294967296.0):
            return False, n, draw
        if self.allowed is not None and (site, n) not in self.allowed:
            return False, n, draw
        return True, n, draw

    def _emit(self, track: int, site: str, n: int, args: dict) -> None:
        self.log.append((site, n))
        if self.tracer is not None:
            args = dict(args)
            args["n"] = n
            self.tracer.fault(track, site, args)

    # ------------------------------------------------------------------
    # hook sites (called by machine components)
    # ------------------------------------------------------------------

    def noc_perturb(self, src: int, dst: int, kind: str) -> int:
        """Extra delivery cycles for one NoC message (0 = untouched).

        Dropped messages (illegal scenario) return :data:`DROP_CYCLES`,
        pushing delivery beyond any observable horizon.
        """
        plan = self.plan
        extra = 0
        # budgets are checked *after* the decision so the per-site call
        # counters advance identically whether or not earlier faults in
        # the run fired (identity stability for the ddmin allow-list)
        if plan.noc_drop_rate:
            fired, n, _draw = self._decide(SITE_NOC_DROP, plan.noc_drop_rate)
            if fired and self._drop_budget > 0:
                self._drop_budget -= 1
                self._emit(TRACK_NOC, SITE_NOC_DROP, n,
                           {"src": src, "dst": dst, "kind": kind})
                return DROP_CYCLES
        if plan.noc_delay_rate:
            fired, n, draw = self._decide(SITE_NOC_DELAY, plan.noc_delay_rate)
            if fired:
                extra = 1 + ((draw >> 32) % max(1, plan.noc_delay_max_cycles))
                self._emit(TRACK_NOC, SITE_NOC_DELAY, n,
                           {"src": src, "dst": dst, "kind": kind,
                            "extra": extra})
        return extra

    def dir_nack(self, bank_id: int, line: int, requester: int,
                 kind: str) -> bool:
        """Should this write-class transaction be transiently NACKed?"""
        plan = self.plan
        if not plan.dir_nack_rate:
            return False
        fired, n, _draw = self._decide(SITE_DIR_NACK, plan.dir_nack_rate)
        if not fired or self._nack_budget <= 0:
            return False
        self._nack_budget -= 1
        self._emit(TRACK_DIR_BASE + bank_id, SITE_DIR_NACK, n,
                   {"line": line, "requester": requester, "kind": kind})
        return True

    def bs_amplify(self, core_id: int, line: int) -> bool:
        """Should this non-ordered invalidation bounce as if BS-hit?"""
        plan = self.plan
        if not plan.bs_amp_rate:
            return False
        fired, n, _draw = self._decide(SITE_BS_AMP, plan.bs_amp_rate)
        if not fired or self._amp_budget <= 0:
            return False
        self._amp_budget -= 1
        self._emit(core_id, SITE_BS_AMP, n, {"line": line})
        return True

    # ------------------------------------------------------------------
    # deterministic shaping (degradation responses, not random events)
    # ------------------------------------------------------------------

    def retry_backoff(self, retries: int, default: int) -> int:
        """Retry delay for a store's *retries*-th bounce.

        Capped exponential backoff when the plan enables it, the
        machine's fixed ``bounce_retry_cycles`` otherwise.
        """
        base = self.plan.retry_backoff_base
        if not base:
            return default
        return min(base << min(retries - 1, 16), self.plan.retry_backoff_cap)

    def wplus_timeout(self, delay: int) -> int:
        """Perturbed W+ deadlock-suspicion timeout (>= 1 cycle)."""
        scale = self.plan.wplus_timeout_scale
        if scale == 1.0:
            return delay
        return max(1, int(delay * scale))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Fired-injection counts by site, plus consultation totals."""
        fired: dict = {}
        for site, _n in self.log:
            fired[site] = fired.get(site, 0) + 1
        return {"fired": fired, "consulted": dict(self.counts)}
