"""The deterministic fault-decision engine.

Every hook site in the machine asks the injector "does a fault fire
here?".  Each decision is keyed by the message it hits:

* NoC delay or drop: ``("noc", src, dst, kind, line, ordinal)`` — GRT
  messages carry a set of lines and use ``None`` as their line;
* directory NACK: ``("dir_nack", bank, line, requester, kind, ordinal)``;
* BS-hit amplification: ``("bs_amp", core, line, ordinal)``;

where *ordinal* counts the earlier consultations for the same message
tuple.  The value is the decision's magnitude: extra delivery cycles
(:data:`~repro.faults.plan.DROP_CYCLES` for a drop) or ``True`` for a
NACK / forced bounce.

The injector runs in one of two modes:

* **hash mode** (the default) fires a fault when a splitmix64-style
  hash of ``(plan.seed, site, n)`` falls under the site's rate, *n*
  being the per-site consultation count, within the plan's budgets —
  so the same faults replay from ``(scenario, seed)`` alone;
* **map mode** (``decisions=...``) fires exactly the listed entries,
  ignoring rates and budgets.  The chaos shrinker replays subsets of a
  run's fired decisions this way.

Both modes record every fired decision in :attr:`FaultInjector.decisions`
(insertion-ordered) and count ordinals at every consultation, so the
map a hash-mode run fires replays that run exactly.  When a tracer is
attached, fired decisions are also emitted as ``fault_*`` instants on
the lane of the component that absorbed them.

The injector also hosts the *degradation-response* shaping: capped
exponential retry backoff and the W+ timeout perturbation, both
deterministic transformations rather than random events.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Mapping, Optional

from repro.faults.plan import DROP_CYCLES, FaultPlan
from repro.obs.tracer import TRACK_DIR_BASE, TRACK_NOC

_MASK64 = (1 << 64) - 1

#: hash sites (the per-site consultation and fired counts of summary())
SITE_NOC_DELAY = "noc_delay"
SITE_NOC_DROP = "noc_drop"
SITE_DIR_NACK = "dir_nack"
SITE_BS_AMP = "bs_amp"
#: the message tag of a NoC decision key (a delay and a drop hit the
#: same message, so they share one key)
NOC = "noc"


def _mix(x: int) -> int:
    """splitmix64 finalizer: one well-mixed 64-bit word from *x*."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def from_entries(entries: Iterable[list]) -> Dict[tuple, object]:
    """The decision map a list of ``[key..., value]`` entries names."""
    return {tuple(entry[:-1]): entry[-1] for entry in entries}


def describe(entry: list) -> str:
    """One ``[key..., value]`` entry as a readable line, e.g.
    ``PutM 0->2 line 0x40 #0 dropped``."""
    tag, *message, ordinal, value = entry
    if tag == NOC:
        src, dst, kind, line = message
        where = f"{kind} {src}->{dst}"
        what = "dropped" if value == DROP_CYCLES else f"+{value} cycles"
    elif tag == SITE_DIR_NACK:
        bank, line, requester, kind = message
        where = f"{kind} from core {requester} at bank {bank}"
        what = "NACKed"
    else:
        core, line = message
        where = f"Inv at core {core}"
        what = "bounced"
    at_line = "" if line is None else f" line {line:#x}"
    return f"{where}{at_line} #{ordinal} {what}"


class FaultInjector:
    """Deterministic fault decisions for one machine run.

    *decisions* switches to map mode: fire exactly these ``{key:
    value}`` entries.  ``None`` means hash mode.
    """

    def __init__(
        self,
        plan: FaultPlan,
        decisions: Optional[Mapping[tuple, object]] = None,
    ):
        self.plan = plan
        self._replay = None if decisions is None else dict(decisions)
        #: fired decisions, in firing order: message key -> magnitude
        self.decisions: Dict[tuple, object] = {}
        #: per-site consultation counts (they index the hash draws)
        self.counts = {
            SITE_NOC_DELAY: 0, SITE_NOC_DROP: 0,
            SITE_DIR_NACK: 0, SITE_BS_AMP: 0,
        }
        #: fired counts by site, in first-fired order
        self.fired: Dict[str, int] = {}
        #: consultations so far per message tuple (the key ordinals)
        self._ordinals: Dict[tuple, int] = {}
        #: remaining budgets for the budgeted sites (hash mode)
        self._budget = {SITE_NOC_DROP: plan.noc_drop_budget,
                        SITE_DIR_NACK: plan.dir_nack_budget,
                        SITE_BS_AMP: plan.bs_amp_budget}
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

    def _key(self, message: tuple) -> tuple:
        """*message*'s decision key; advances its ordinal."""
        ordinal = self._ordinals.get(message, 0)
        self._ordinals[message] = ordinal + 1
        return message + (ordinal,)

    def _draw(self, site: str, rate: float) -> Optional[int]:
        """One consultation of *site*: the full 64-bit hash when the
        fault fires (callers derive magnitudes from its upper bits),
        else None.  Map mode only counts the consultation."""
        n = self.counts[site]
        self.counts[site] = n + 1
        if self._replay is not None:
            return None
        draw = _mix(self._base[site] + n * 0xD1B54A32D192ED03)
        if (draw & 0xFFFFFFFF) >= int(rate * 4294967296.0):
            return None
        return draw

    def _budgeted(self, site: str, rate: float) -> bool:
        """A hash-mode firing of a budgeted *site*.  The budget is
        checked *after* the draw, so the per-site counts advance
        identically whether or not earlier faults fired."""
        if not rate or self._draw(site, rate) is None \
                or self._budget[site] <= 0:
            return False
        self._budget[site] -= 1
        return True

    def _fire(self, key: tuple, value, site: str, track: int,
              args: dict) -> None:
        self.decisions[key] = value
        self.fired[site] = self.fired.get(site, 0) + 1
        if self.tracer is not None:
            args["ordinal"] = key[-1]
            self.tracer.fault(track, site, args)

    # ------------------------------------------------------------------
    # hook sites (called by machine components)
    # ------------------------------------------------------------------

    def noc_perturb(self, src: int, dst: int, kind: str, line) -> int:
        """Extra delivery cycles for one NoC message (0 = untouched).

        Dropped messages (illegal scenario) return :data:`DROP_CYCLES`,
        pushing delivery beyond any observable horizon.
        """
        plan = self.plan
        replay = self._replay
        drop_rate, delay_rate = plan.noc_drop_rate, plan.noc_delay_rate
        if replay is None and not (drop_rate or delay_rate):
            return 0
        key = self._key((NOC, src, dst, kind, line))
        extra = 0 if replay is None else replay.get(key, 0)
        if self._budgeted(SITE_NOC_DROP, drop_rate):
            extra = DROP_CYCLES
        elif delay_rate and extra != DROP_CYCLES:
            draw = self._draw(SITE_NOC_DELAY, delay_rate)
            if draw is not None:
                extra = 1 + ((draw >> 32) % max(1, plan.noc_delay_max_cycles))
        if extra:
            dropped = extra == DROP_CYCLES
            self._fire(key, extra, SITE_NOC_DROP if dropped
                       else SITE_NOC_DELAY, TRACK_NOC,
                       {"src": src, "dst": dst, "kind": kind, "line": line,
                        "extra": extra})
        return extra

    def _flag(self, site: str, rate: float, message: tuple, track: int,
              args: dict) -> bool:
        """One consultation of a fire-or-not *site* about *message*."""
        replay = self._replay
        if replay is None and not rate:
            return False
        key = self._key(message)
        if self._budgeted(site, rate) or (replay is not None
                                          and key in replay):
            self._fire(key, True, site, track, args)
            return True
        return False

    def dir_nack(self, bank_id: int, line: int, requester: int,
                 kind: str) -> bool:
        """Should this write-class transaction be transiently NACKed?"""
        return self._flag(SITE_DIR_NACK, self.plan.dir_nack_rate,
                          (SITE_DIR_NACK, bank_id, line, requester, kind),
                          TRACK_DIR_BASE + bank_id,
                          {"line": line, "requester": requester,
                           "kind": kind})

    def bs_amplify(self, core_id: int, line: int) -> bool:
        """Should this non-ordered invalidation bounce as if BS-hit?"""
        return self._flag(SITE_BS_AMP, self.plan.bs_amp_rate,
                          (SITE_BS_AMP, core_id, line), core_id,
                          {"line": line})

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
        return {"fired": dict(self.fired), "consulted": dict(self.counts)}
