"""SW+ — any asymmetric fence group (paper §3.3.2).

With several wfs in a group, some pre-wf writes *must* keep bouncing to
prevent an SCV (Fig. 3c) — unconditional Order promotion (WS+) would
order the write and close the dependence cycle.  SW+ therefore issues a
**Conditional Order**: the request carries the word bitmask being
written, the BS keeps word-granularity access info, and the directory
completes the operation only when every BS match is due to *false
sharing*.  True-sharing matches make the CO fail and retry — that
bouncing is what prevents the SCV, and it terminates because every
asymmetric group contains at least one sf.
"""

from __future__ import annotations

from repro.common.params import FenceDesign, FenceFlavour
from repro.fences.base import FencePolicy, PendingFence


class SWPlusPolicy(FencePolicy):
    design = FenceDesign.SW_PLUS
    fine_grain_bs = True
    # synthesis: any asymmetric group — several wfs are fine as long
    # as an sf breaks the would-be bounce cycle (the CO termination
    # argument above); all-wf groups need W+'s recovery hardware
    synth_flavours = (FenceFlavour.WF, FenceFlavour.SF)
    synth_needs_sf_with_wf = True

    def on_wf_retire(self, pf: PendingFence) -> bool:
        core = self.core
        promoted = core.wb.mark_ordered_upto(
            pf.last_store_id, word_mask_fn=core.amap.word_mask
        )
        if promoted and core.tracer is not None:
            core.tracer.order_promotion(core.core_id, promoted, True)
        return True

    def on_pre_store_bounce(self, entry) -> None:
        if self._is_pre_wf(entry) and not entry.ordered:
            entry.ordered = True
            entry.word_mask = self.core.amap.word_mask(entry.word)
            core = self.core
            if core.tracer is not None:
                core.tracer.order_promotion(core.core_id, 1, True)

    def _is_pre_wf(self, entry) -> bool:
        return any(
            entry.store_id <= pf.last_store_id for pf in self.core.pending_fences
        )

    def sanitizer_check(self):
        # CO promotion is only legal for pre-wf stores, and every
        # ordered store must carry the word mask its Conditional Order
        # request needs for the false-sharing test.
        core = self.core
        pfs = core.pending_fences
        newest = pfs[-1].last_store_id if pfs else 0
        for e in core.wb._entries:
            if e.ordered and e.store_id > newest:
                yield ("order-outside-episode", e.line,
                       f"store {e.store_id} ordered but newest pre-wf "
                       f"store is {newest}")
            if e.ordered and not e.word_mask:
                yield ("cond-order-missing-mask", e.line,
                       f"ordered store {e.store_id} has an empty word "
                       "mask on SW+")
