"""Wee — the WeeFence baseline with its global state (paper §2.2).

WeeFence avoids the wf-only deadlock with the Global Reorder Table
(GRT): a fence deposits its Pending Set (PS — the line addresses of its
not-yet-completed pre-fence stores) at the directory and collects the
PSs of all concurrently-executing fences into a local *Remote PS*.
A post-fence access whose address hits the Remote PS stalls, which
breaks the would-be dependence cycle before any BS bounce can deadlock.

The implementability problem the paper highlights: the PS/BS state must
be confined to a **single** directory module, because collecting a
consistent view across modules is unsolved.  WeeFence therefore demotes
a fence to a conventional sf when confinement fails [8].  We model both
halves of that rule:

* at retirement, if the PS lines map to more than one directory bank,
  the fence executes as an sf (counted in Table 4 cols 12-13);
* while the fence is incomplete, a post-fence load homed at a different
  bank than the deposit (its GRT check would need a second module)
  converts the fence: the load stalls until the fence completes and the
  dynamic fence is re-counted as an sf.

Post-fence loads also stall until the GRT round-trip returns (they must
check the Remote PS before completing) and whenever they hit it.
"""

from __future__ import annotations

from typing import Optional

from repro.common.params import FenceDesign, FenceFlavour
from repro.fences.base import FencePolicy, PendingFence


class WeeFencePolicy(FencePolicy):
    design = FenceDesign.WEE
    # synthesis: WeeFence is placed as a wf everywhere; the GRT
    # confinement rule demotes individual dynamic instances to sf
    synth_flavours = (FenceFlavour.WF,)

    def on_wf_retire(self, pf: PendingFence) -> bool:
        core = self.core
        ps_lines = {e.line for e in core.wb.entries_upto(pf.last_store_id)}
        banks = {core.amap.home_bank(line) for line in ps_lines}
        ideal = core.params.wee_ideal
        if len(banks) > 1 and not ideal:
            return False  # confinement failure: execute as sf
        pf.wee_bank = min(banks)
        pf.wee_remote_ps = None

        def remote_ps_arrived(remote):
            pf.wee_remote_ps = remote
            core.retry_stalled_load()
            core.recheck_fence_completion()

        core.l1.grt_deposit(pf.wee_bank, pf.fence_id, ps_lines,
                            remote_ps_arrived, global_view=ideal)
        return True

    def completion_blocked(self, pf: PendingFence) -> bool:
        # the fence's GRT state must be acknowledged before the fence
        # can retire its bookkeeping (multi-module consistency is the
        # very problem WeeFence cannot solve, §2.3)
        return pf.wee_remote_ps is None

    def on_wf_complete(self, pf: PendingFence) -> None:
        if pf.wee_bank is not None:
            self.core.l1.grt_withdraw(pf.wee_bank, pf.fence_id)

    def load_stall_check(self, addr: int) -> Optional[str]:
        core = self.core
        line = core.amap.line_of(addr)
        for pf in core.pending_fences:
            if pf.wee_bank is None:
                continue  # demoted instance already ran as sf
            if pf.wee_remote_ps is None:
                return "grt_pending"
            if line in pf.wee_remote_ps:
                return "remote_ps"
            if not core.params.wee_ideal and \
                    core.amap.home_bank(line) != pf.wee_bank:
                if not pf.wee_converted:
                    pf.wee_converted = True
                    core.recount_wee_conversion()
                    if core.tracer is not None:
                        core.tracer.wf_convert(core.core_id, pf.fence_id)
                return "cross_bank"
        return None

    def sanitizer_check(self):
        # GRT discipline: once the deposit round trip has been
        # acknowledged (wee_remote_ps set), the deposit must sit at the
        # fence's deposit module — and, unless the idealized ablation is
        # on, at no other module (single-module confinement, §2.3).
        core = self.core
        banks = core.l1.banks
        ideal = core.params.wee_ideal
        for pf in core.pending_fences:
            if pf.wee_bank is None:
                continue  # demoted instance already ran as sf
            key = (core.core_id, pf.fence_id)
            holders = [b.bank_id for b in banks if key in b.grt]
            if pf.wee_remote_ps is not None and pf.wee_bank not in holders:
                yield ("grt-missing-deposit", None,
                       f"fence {pf.fence_id} deposit absent from bank "
                       f"{pf.wee_bank}")
            if not ideal and len(holders) > 1:
                yield ("grt-confinement", None,
                       f"fence {pf.fence_id} deposited at banks {holders}")
