"""W+ — all fences may be weak, deadlock handled by recovery (§3.3.3).

No Order promotion, no fine-grain BS, no global state: when multiple
colliding wfs prevent a cycle they simply deadlock — each core has a
pre-wf write being bounced *and* a BS that bounces external requests.
The hardware:

1. takes a register checkpoint when a wf retires (here: the thread's
   replay-log position, see :mod:`repro.core.thread`);
2. starts a timeout once it detects (bouncing ∧ being-bounced);
3. on expiry, rolls back to the checkpoint, clears the BS, waits for
   the write buffer to drain (completing all pre-wf accesses — the wf
   behaves as an sf this once), and resumes.

Under TSO the squashed post-wf accesses are necessarily loads, so the
rollback needs no speculative store buffering (the core discards the
not-yet-merged post-wf write-buffer entries).  Timeouts are staggered
per core to avoid recovery livelock.

All the heavy machinery (squashing parked continuations, WB truncation,
drain wait) lives in :meth:`repro.core.cpu.Core._recover`; the policy
only flags what the core must do.
"""

from __future__ import annotations

from repro.common.params import FenceDesign, FenceFlavour
from repro.fences.base import FencePolicy


class WPlusPolicy(FencePolicy):
    design = FenceDesign.W_PLUS
    needs_checkpoint = True
    needs_deadlock_monitor = True
    conventional_sf = False  # checkpoints and recovery
    # synthesis: every fence is a wf (recovery tolerates all-wf
    # groups); sf behaviour only ever appears dynamically, via the
    # recovery drain
    synth_flavours = (FenceFlavour.WF,)

    def sanitizer_check(self):
        # rollback recovery is W+'s whole correctness story: a pending
        # wf without a checkpoint could never be unwound.
        for pf in self.core.pending_fences:
            if pf.checkpoint is None:
                yield ("wplus-missing-checkpoint", None,
                       f"pending fence {pf.fence_id} has no checkpoint")
