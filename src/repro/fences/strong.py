"""S+ — the conventional-fence baseline.

Every fence is a Strong Fence: the core stalls at retirement until all
pre-fence stores have drained from the write buffer (TSO: one at a
time), plus a pipeline-serialization constant (``sf_base_cycles``,
calibrated so a fence preceded by several missing writes costs on the
order of the 200 cycles the paper measured on a Xeon E5530).

Speculative execution of post-fence loads (allowed for sfs, §2.1) only
overlaps load latency with the drain; it never changes visibility
order.  We fold that overlap into the calibration constant instead of
modeling a lookahead window (see DESIGN.md).

All the sf timing lives in the core and the mapping "every role -> SF"
in :func:`repro.common.params.flavour_for`; this policy adds only the
invariants an all-sf design must keep.
"""

from __future__ import annotations

from repro.common.params import FenceDesign
from repro.fences.base import FencePolicy


class StrongOnlyPolicy(FencePolicy):
    design = FenceDesign.S_PLUS

    def sanitizer_check(self):
        # with every fence an sf there are no wf episodes at all: any
        # pending fence or BS entry is machinery that must not exist
        core = self.core
        if core.pending_fences:
            yield ("sf-only-pending-wf", None,
                   f"{len(core.pending_fences)} pending weak fence(s) "
                   "on an all-sf design")
        if not core.bs.empty:
            line = next(iter(core.bs._entries))
            yield ("sf-only-bs", line,
                   f"{len(core.bs)} BS entr(ies) on an all-sf design")
