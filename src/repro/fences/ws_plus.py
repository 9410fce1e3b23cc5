"""WS+ — at most one weak fence per fence group (paper §3.3.1).

Because every other fence in a colliding group is an sf (no BS), a
pre-wf write of this core can only be bounced by an *unrelated* wf —
never to prevent an SCV.  Such bouncing is therefore unnecessary, and
the hardware promotes every currently-bouncing pre-wf write to an
**Order** request: the directory invalidates the sharers but keeps the
BS-matching ones as sharers (preserving their monitoring ability) and
merges the update, so the write completes ordered *after* the remote
post-wf read.

Promotion happens (a) when the wf retires, for writes already bouncing,
and (b) when a pre-wf write starts bouncing while a wf is incomplete.
Writes followed by an sf keep bouncing (no special action — the paper
notes sfs belong to non-critical threads).
"""

from __future__ import annotations

from repro.common.params import FenceDesign, FenceFlavour
from repro.fences.base import FencePolicy, PendingFence


class WSPlusPolicy(FencePolicy):
    design = FenceDesign.WS_PLUS
    # synthesis: both flavours expressible, but at most one wf per
    # fence group — more would make Order promotion close an SCV cycle
    synth_flavours = (FenceFlavour.WF, FenceFlavour.SF)
    synth_max_wf = 1

    def on_wf_retire(self, pf: PendingFence) -> bool:
        core = self.core
        promoted = core.wb.mark_ordered_upto(pf.last_store_id)
        if promoted and core.tracer is not None:
            core.tracer.order_promotion(core.core_id, promoted, False)
        return True

    def on_pre_store_bounce(self, entry) -> None:
        if self._is_pre_wf(entry) and not entry.ordered:
            entry.ordered = True
            core = self.core
            if core.tracer is not None:
                core.tracer.order_promotion(core.core_id, 1, False)

    def _is_pre_wf(self, entry) -> bool:
        return any(
            entry.store_id <= pf.last_store_id for pf in self.core.pending_fences
        )

    def sanitizer_check(self):
        # Order promotion is only legal for pre-wf stores, and WS+'s
        # BS is line-granularity: a word mask would mean CO machinery
        # (SW+) leaked into this design.
        core = self.core
        pfs = core.pending_fences
        newest = pfs[-1].last_store_id if pfs else 0
        for e in core.wb._entries:
            if e.ordered and e.store_id > newest:
                yield ("order-outside-episode", e.line,
                       f"store {e.store_id} ordered but newest pre-wf "
                       f"store is {newest}")
            if e.word_mask:
                yield ("word-mask-on-coarse-design", e.line,
                       f"store {e.store_id} carries word mask "
                       f"{e.word_mask:#x} on WS+")
