"""Fault plans: the declarative description of one injection campaign.

A :class:`FaultPlan` is (scenario name, seed, knobs).  The knobs are
rates, magnitudes and budgets for the four injector families wired into
the machine:

* **NoC delay/jitter** — extra delivery cycles on a fraction of
  messages.  Because every message is an independently scheduled event,
  a bounded extra delay also yields bounded reordering between messages
  in flight (a message can be overtaken by at most the jitter window).
* **Directory NACKs** — a transient resource NACK for write-class
  transactions (GetX / Order / Conditional-Order) before the bank
  touches any sharer state; the requester retries with capped
  exponential backoff.  GetS is never NACKed (loads have no retry path
  and real directories sink reads).
* **BS-hit amplification** — a non-ordered invalidation is answered
  ``INV_BOUNCE`` as if the target's Bypass Set held the line, forcing
  the writer's whole transaction to fail and retry.  Ordered (Order/CO)
  requests are never amplified: their non-bounceability is the
  forward-progress guarantee of WS+/SW+ (§3.3.1) and faking a bounce
  there would be protocol-*illegal*.
* **W+ timeout perturbation** — the deadlock-suspicion timeout is
  scaled (shrunken: recovery storms; inflated: long stalls before
  recovery).

Every legal knob is budget- or magnitude-bounded so the perturbed
machine still guarantees forward progress; the one deliberately broken
scenario (``illegal_drop``) effectively loses messages and is expected
to be caught by the chaos oracles (and shrunk by ddmin).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Tuple

#: "latency" of a dropped message: far beyond any run's horizon, so the
#: delivery event never fires inside the verify cycle cap — the message
#: is lost for every observable purpose (the illegal scenario).
DROP_CYCLES = 10 ** 9


@dataclass(frozen=True)
class FaultPlan:
    """One injection campaign: scenario + seed + knobs.

    Replaying the exact same faults needs only ``(scenario, seed)`` —
    the injector derives every decision from them deterministically.
    """

    scenario: str
    seed: int

    # --- NoC delay / jitter (bounded reordering) ---------------------
    #: fraction of messages receiving extra delivery latency
    noc_delay_rate: float = 0.0
    #: max extra cycles per delayed message (also the reorder bound)
    noc_delay_max_cycles: int = 0
    #: fraction of messages dropped — protocol-ILLEGAL, only for the
    #: broken scenario the chaos oracles must catch
    noc_drop_rate: float = 0.0
    #: cap on total dropped messages
    noc_drop_budget: int = 0

    # --- transient directory NACKs -----------------------------------
    #: fraction of write-class transactions NACKed at the bank
    dir_nack_rate: float = 0.0
    #: cap on total injected NACKs (guarantees forward progress)
    dir_nack_budget: int = 0

    # --- retry backoff shaping (degradation response) ----------------
    #: when > 0, a bounced store's retry delay becomes
    #: ``min(base << (retries - 1), cap)`` instead of the fixed
    #: ``bounce_retry_cycles`` — capped exponential backoff
    retry_backoff_base: int = 0
    retry_backoff_cap: int = 0

    # --- adversarial BS-hit amplification ----------------------------
    #: fraction of non-ordered invalidations bounced as if BS-hit
    bs_amp_rate: float = 0.0
    #: cap on total forced bounces
    bs_amp_budget: int = 0

    # --- W+ timeout perturbation -------------------------------------
    #: multiplier on the deadlock-suspicion timeout (1.0 = untouched;
    #: < 1 shrinks it into recovery storms, > 1 inflates it)
    wplus_timeout_scale: float = 1.0

    # --- chaos oracle contract ---------------------------------------
    #: bounded-recovery oracle: more W+ recoveries than this in one
    #: litmus-sized run is a recovery livelock
    recovery_bound: int = 200
    #: every injection is a protocol-legal perturbation (the SC +
    #: forward-progress oracles must still pass)
    legal: bool = True

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


#: Built-in scenario catalog: name -> knob overrides.  Rates are chosen
#: so litmus-sized chaos runs see several injections per run while all
#: budgets stay comfortably inside the verify cycle cap.
SCENARIOS: Dict[str, dict] = {
    # message delay jitter (and therefore bounded reordering) on every
    # link — stretches coherence round trips and fence drain windows
    "noc_jitter": dict(
        noc_delay_rate=0.20, noc_delay_max_cycles=40,
    ),
    # transient directory NACKs with exponential-backoff retries —
    # Order/CO/invalidate transactions fail and re-issue
    "dir_nack": dict(
        dir_nack_rate=0.25, dir_nack_budget=64,
        retry_backoff_base=8, retry_backoff_cap=256,
    ),
    # adversarial BS: invalidations bounce as if every BS held the line,
    # driving writers into bounce/retry storms
    "bounce_storm": dict(
        bs_amp_rate=0.35, bs_amp_budget=48,
    ),
    # hair-trigger W+ timeout: recoveries fire on transient interference
    "timeout_shrink": dict(
        wplus_timeout_scale=0.2,
    ),
    # sluggish W+ timeout: genuine deadlocks sit far longer before the
    # recovery path finally runs (must still beat the watchdog)
    "timeout_inflate": dict(
        wplus_timeout_scale=4.0,
    ),
    # hair-trigger W+ timeouts under forced bounces: the one mix that
    # drives W+ into back-to-back recoveries (bounded by the
    # bounded-recovery oracle)
    "recovery_storm": dict(
        wplus_timeout_scale=0.2,
        bs_amp_rate=0.30, bs_amp_budget=48,
    ),
    # everything legal at once, at moderate rates
    "chaos_combo": dict(
        noc_delay_rate=0.10, noc_delay_max_cycles=25,
        dir_nack_rate=0.10, dir_nack_budget=32,
        retry_backoff_base=8, retry_backoff_cap=256,
        bs_amp_rate=0.15, bs_amp_budget=24,
        wplus_timeout_scale=0.5,
    ),
    # deliberately BROKEN: lost messages hang the protocol — the chaos
    # oracles must flag it and ddmin must shrink the fault plan
    "illegal_drop": dict(
        noc_drop_rate=0.25, noc_drop_budget=8,
        legal=False,
    ),
}

#: scenarios safe to sweep in CI (``repro chaos --scenarios all``)
LEGAL_SCENARIOS: Tuple[str, ...] = tuple(
    name for name, over in sorted(SCENARIOS.items())
    if over.get("legal", True)
)


def make_plan(scenario: str, seed: int) -> FaultPlan:
    """The :class:`FaultPlan` for a built-in *scenario* at *seed*."""
    try:
        overrides = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown fault scenario {scenario!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}"
        ) from None
    return FaultPlan(scenario=scenario, seed=seed, **overrides)
