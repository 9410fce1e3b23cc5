"""Location-based Memory Fences — the §8 related-work baseline.

An **extension** to the paper's evaluated set (the paper compares
against l-mf only qualitatively).  Per Ladan-Mozes, Lee & Vyukov
(SPAA'11), an l-mf takes the address of the write that precedes it:

* if the protected location's line is still cached **Exclusive/
  Modified** (no other thread accessed it since), the operation is
  just a cached load + store-conditional — nearly free;
* if a second thread touched the location in the meantime, the SC
  fails and the thread must perform a **conventional fence**.

The paper's four qualitative differences (§8), all visible here:

1. wfs let post-fence accesses complete early; an l-mf never does
   (``flavour_for`` maps l-mf to SF — only the *cost* varies).
2. An l-mf protects one write; a wf protects all pending ones.  We
   bind the l-mf to the newest write-buffer entry at fence retirement.
3. Any remote access to the location downgrades the line and makes the
   next l-mf fall back to a full fence; a wf is insensitive to how
   often the sf side runs.
4. l-mf targets two-thread conflicts; wfs work for any group size.
"""

from __future__ import annotations

from repro.common.params import FenceDesign
from repro.fences.base import FencePolicy

#: cycles of an l-mf whose store-conditional succeeds (a cached
#: load + SC pair)
LMF_FAST_CYCLES = 4


class LocationFencePolicy(FencePolicy):
    design = FenceDesign.LMF
    conventional_sf = False  # sf_base_cost depends on the location

    def sf_base_cost(self) -> int:
        core = self.core
        if core.wb.empty:
            # nothing to order: the SC runs against a quiet line
            core.stats.lmf_fast += 1
            if core.tracer is not None:
                core.tracer.lmf_decision(core.core_id, True)
            return LMF_FAST_CYCLES
        newest = core.wb.snapshot()[-1]
        state = core.l1.cache.lookup(newest.line, touch=False)
        if state is not None and state.writable:
            core.stats.lmf_fast += 1
            if core.tracer is not None:
                core.tracer.lmf_decision(core.core_id, True)
            return LMF_FAST_CYCLES
        core.stats.lmf_fallbacks += 1
        if core.tracer is not None:
            core.tracer.lmf_decision(core.core_id, False)
        return core.params.sf_base_cycles
