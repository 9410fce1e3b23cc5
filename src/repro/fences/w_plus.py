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

from collections import deque

from repro.common.params import FenceDesign, FenceFlavour, FenceRole
from repro.fences.base import FencePolicy


class WPlusPolicy(FencePolicy):
    design = FenceDesign.W_PLUS
    needs_checkpoint = True
    needs_deadlock_monitor = True
    # synthesis: every fence is a wf (recovery tolerates all-wf
    # groups); sf behaviour only ever appears dynamically, via the
    # recovery drain or the storm-demotion monitor
    synth_flavours = (FenceFlavour.WF,)

    def __init__(self, core):
        super().__init__(core)
        # recovery-storm monitor (graceful degradation, mirrors Wee's
        # dynamic wf -> sf demotion): K recoveries inside a sliding
        # window demote this core's wfs to sfs for a cooldown period,
        # trading wf overlap for guaranteed progress instead of
        # thrashing through checkpoint rollbacks.  Off by default
        # (``wplus_storm_k == 0``) so baseline W+ timing is untouched.
        self._recovery_times: deque = deque()
        self._demoted_until = -1

    def flavour(self, role: FenceRole) -> FenceFlavour:
        if self.core.queue.now < self._demoted_until:
            return FenceFlavour.SF
        return super().flavour(role)

    def on_recovery(self) -> None:
        core = self.core
        k = core.params.wplus_storm_k
        if k <= 0:
            return
        now = core.queue.now
        times = self._recovery_times
        times.append(now)
        horizon = now - core.params.wplus_storm_window_cycles
        while times and times[0] < horizon:
            times.popleft()
        if len(times) >= k and now >= self._demoted_until:
            self._demoted_until = now + core.params.wplus_storm_cooldown_cycles
            times.clear()
            core.stats.storm_demotions[core.core_id] += 1
            if core.tracer is not None:
                core.tracer.storm_demotion(core.core_id, self._demoted_until)

    def sanitizer_check(self):
        # rollback recovery is W+'s whole correctness story: a pending
        # wf without a checkpoint could never be unwound.
        for pf in self.core.pending_fences:
            if pf.checkpoint is None:
                yield ("wplus-missing-checkpoint", None,
                       f"pending fence {pf.fence_id} has no checkpoint")
