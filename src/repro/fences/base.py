"""Fence-design policy interface.

A :class:`FencePolicy` encapsulates, per core, everything that differs
between the paper's five fence environments (Table 1):

====== =============================================================
S+     every fence is an sf (conventional); no BS.
WS+    wf = WeeFence w/o GRT/PS + Order bit/operation (§3.3.1).
SW+    wf = + fine-grain BS info + Conditional Order (§3.3.2).
W+     wf = + checkpoint, bounce/bounced detection, timeout,
       rollback recovery (§3.3.3).
Wee    WeeFence with GRT and PS; falls back to sf when the PS (and,
       dynamically, the BS) cannot be confined to one directory
       module (§2.2/§6).
====== =============================================================

The core (:class:`repro.core.cpu.Core`) calls the hooks; policies never
schedule thread continuations themselves, keeping all timing in one
place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.common.params import FenceDesign, FenceFlavour, FenceRole, flavour_for


@dataclass
class PendingFence:
    """An incomplete weak fence outstanding at a core.

    Completes when the newest pre-fence store (``last_store_id``) merges
    with the memory system; BS entries inserted on its behalf are tagged
    with ``fence_id`` and cleared at completion.
    """

    fence_id: int
    last_store_id: int
    #: thread-log checkpoint token (W+ only)
    checkpoint: Optional[int] = None
    #: Wee: directory module holding this fence's GRT deposit
    wee_bank: Optional[int] = None
    #: Wee: remote pending-set lines (None until the GRT reply arrives)
    wee_remote_ps: Optional[Set[int]] = None
    #: Wee: this dynamic fence was re-counted as an sf because a
    #: post-fence access left the confined directory module
    wee_converted: bool = False


class FencePolicy:
    """Per-core strategy for one fence design."""

    design: FenceDesign = FenceDesign.S_PLUS
    #: the BS stores word masks (SW+; ``Machine`` builds every L1's BS
    #: from this flag); only an ordered invalidation, i.e. a promoted
    #: store, reads them — so a run that promoted no store is the same
    #: under WS+ and SW+ (:func:`repro.verify.oracles.shares_run`)
    fine_grain_bs = False
    #: take a thread checkpoint at every wf (W+); it changes no timing
    needs_checkpoint = False
    #: run the deadlock-suspicion monitor (W+); only a bounce reaches
    #: it, so a run without one is the same under W+ as under WS+ and
    #: SW+ with the same wfs (:func:`repro.verify.oracles.shares_run`)
    needs_deadlock_monitor = False
    #: a callable(resume) replacing the conventional strong-fence stall
    #: (C-fence overrides with its centralized-table protocol)
    custom_strong_fence = None
    #: an sf runs the core's default path at the default base cost, and
    #: nothing but a wf reaches this design's machinery — so a program
    #: whose every fence is an sf here runs exactly as under S+
    #: (:func:`repro.verify.oracles.design_inert`).  False wherever a
    #: subclass changes the sf path or adds machinery outside a wf.
    conventional_sf = True

    # --- static synthesis metadata (repro.synth) ----------------------
    #: fence flavours this design can express at a synthesis site (S+
    #: and the §8 extensions are sf-only; W+/Wee are wf-only)
    synth_flavours = (FenceFlavour.SF,)
    #: max wfs per fence group, or None for unlimited (WS+: one wf per
    #: group, paper §3.3.1)
    synth_max_wf = None
    #: a group with >= 2 wfs must also contain an sf — the termination
    #: argument of SW+'s Conditional Order (§3.3.2); all-wf groups
    #: need W+'s recovery hardware
    synth_needs_sf_with_wf = False

    def __init__(self, core):
        self.core = core

    # --- static mapping ------------------------------------------------

    def flavour(self, role: FenceRole) -> FenceFlavour:
        return flavour_for(self.design, role)

    # --- hooks (no-ops by default) ------------------------------------

    def on_wf_retire(self, pf: PendingFence) -> bool:
        """A wf retired with pending pre-fence stores.

        Return True to proceed as a wf, False to demote this dynamic
        instance to sf behaviour (Wee confinement failure).
        """
        return True

    def on_pre_store_bounce(self, entry) -> None:
        """A buffered store was bounced by a remote BS."""

    def on_wf_complete(self, pf: PendingFence) -> None:
        """All pre-fence stores of *pf* merged; the fence is complete."""

    def completion_blocked(self, pf: PendingFence) -> bool:
        """May *pf* complete once its pre-fence stores have merged?

        Wee returns True while the GRT deposit round trip is still in
        flight: the fence cannot clear its pending-set bookkeeping (or
        let the BS/RemotePS machinery stand down) before the directory
        module has acknowledged the deposit.
        """
        return False

    def load_stall_check(self, addr: int) -> Optional[str]:
        """Must a post-fence load stall while fences are incomplete?

        Returns a reason string (stall until the oldest pending fence
        completes) or None to let the load proceed.  Only Wee uses this
        (RemotePS hits and directory-module confinement).
        """
        return None

    def sf_base_cost(self) -> int:
        """Pipeline-serialization cycles a strong fence charges on top
        of the write-buffer drain.  l-mf overrides this: cheap while
        the protected location is still exclusively cached."""
        return self.core.params.sf_base_cycles

    def sanitizer_check(self):
        """Design-specific structural invariants (repro.sanitizer).

        Yields ``(invariant, line, detail)`` tuples for any violated
        invariant; the sanitizer reports each with this policy's core.
        Must be side-effect-free — it runs mid-simulation.
        """
        return ()


@functools.lru_cache(maxsize=None)
def _policy_classes():
    """design -> policy class map (imported lazily, at first use, to
    keep the package import-order simple)."""
    from repro.fences.cfence import CFencePolicy
    from repro.fences.lmf import LocationFencePolicy
    from repro.fences.strong import StrongOnlyPolicy
    from repro.fences.sw_plus import SWPlusPolicy
    from repro.fences.w_plus import WPlusPolicy
    from repro.fences.weefence import WeeFencePolicy
    from repro.fences.ws_plus import WSPlusPolicy

    return {
        FenceDesign.S_PLUS: StrongOnlyPolicy,
        FenceDesign.WS_PLUS: WSPlusPolicy,
        FenceDesign.SW_PLUS: SWPlusPolicy,
        FenceDesign.W_PLUS: WPlusPolicy,
        FenceDesign.WEE: WeeFencePolicy,
        FenceDesign.LMF: LocationFencePolicy,
        FenceDesign.CFENCE: CFencePolicy,
    }


def policy_class(design: FenceDesign):
    """The :class:`FencePolicy` subclass implementing *design*."""
    return _policy_classes()[design]


def make_policy(design: FenceDesign, core) -> FencePolicy:
    """Instantiate the per-core policy for *design*."""
    return policy_class(design)(core)


@dataclass(frozen=True)
class SynthProfile:
    """What the fence synthesizer may place under one design.

    Derived from the policy class's static synthesis metadata; the
    legality predicate encodes Table 1's group taxonomy with the whole
    placement treated as a single fence group (conservative for
    litmus-scale programs, see docs/SYNTHESIS.md).
    """

    design: FenceDesign
    flavours: tuple
    max_wf: Optional[int]
    needs_sf_with_wf: bool

    def legal(self, num_wf: int, num_sf: int) -> bool:
        """May a placement with these flavour counts run under the
        design without violating its group taxonomy?"""
        if num_wf and FenceFlavour.WF not in self.flavours:
            return False
        if num_sf and FenceFlavour.SF not in self.flavours:
            return False
        if self.max_wf is not None and num_wf > self.max_wf:
            return False
        if self.needs_sf_with_wf and num_wf >= 2 and num_sf == 0:
            return False
        return True


def synthesis_profile(design: FenceDesign) -> SynthProfile:
    """Synthesis metadata (expressible flavours, group legality) for
    *design*."""
    cls = policy_class(design)
    return SynthProfile(
        design=design,
        flavours=tuple(cls.synth_flavours),
        max_wf=cls.synth_max_wf,
        needs_sf_with_wf=cls.synth_needs_sf_with_wf,
    )


#: Rows of the paper's Table 1 (taxonomy), for the Table-1 bench target.
TABLE1_ROWS = (
    ("S+", "Fence groups with only sfs", "None (conventional fence)"),
    ("WS+", "Asymmetric groups with at most one wf",
     "BS, Order bit, and Order operation"),
    ("SW+", "Any Asymmetric group",
     "BS, Order bit, fine-grain info, and Conditional Order operation"),
    ("W+", "Any Asymmetric group and wf-only groups",
     "BS, checkpoint, detect bouncing & being bounced, timeout, and recovery"),
    ("Wee", "WeeFence", "BS and global state (GRT and PS)"),
)
