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

from repro.common.params import FenceDesign
from repro.fences.ws_plus import WSPlusPolicy


class SWPlusPolicy(WSPlusPolicy):
    """WS+'s promotion machinery, issuing Conditional Orders."""

    design = FenceDesign.SW_PLUS
    conditional = True
    fine_grain_bs = True
    # synthesis: any asymmetric group — several wfs are fine as long
    # as an sf breaks the would-be bounce cycle (the CO termination
    # argument above); all-wf groups need W+'s recovery hardware
    synth_max_wf = None
    synth_needs_sf_with_wf = True
