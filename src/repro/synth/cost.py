"""Timing cost model: replay placements through the clean simulator.

Two complementary measurements, both taken at the jitter-free default
point (the paper's machine, default knobs):

* **end-to-end cycles** of a whole placement — what the ranked table
  sorts by within a design.  Caveat: on contended kernels this mixes
  fence latency with second-order machine effects (W+ collision
  recoveries, CO bouncing), so an all-wf W+ run can cost *more*
  end-to-end than an all-sf S+ run even though each individual wf is
  cheaper than each sf.
* **per-site marginal probes** — the cycle delta of placing exactly one
  fence of one flavour at one site versus the empty baseline.  This
  isolates the per-fence latency the paper's asymmetry claim is about:
  a wf probe is ~0 (post-fence accesses complete early via the Bypass
  Set) while an sf probe pays the write-buffer drain.

The simulator is deterministic per (program, design, point), so the
whole model is reproducible bit-for-bit — and cost runs come out of
the oracle's :class:`~repro.verify.oracles.RunStore`: the cost point
*is* adversary point 0 and a single-fence probe *is* a search
candidate.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.params import FenceDesign
from repro.fences.base import synthesis_profile
from repro.synth.sites import FenceSite, Placement
from repro.verify.generator import LitmusProgram
from repro.verify.oracles import RunStore
from repro.verify.perturb import DEFAULT_POINT


def measure_cycles(
    stripped: LitmusProgram,
    placement: Placement,
    store: RunStore,
    design: FenceDesign,
) -> Optional[int]:
    """End-to-end cycles of *placement* under *design* at the default
    point, or None if the run failed to complete cleanly (cost of a
    broken run is meaningless).  The run comes from *store*."""
    run = store.run(placement.apply(stripped, design), design, DEFAULT_POINT)
    if not run.completed or run.error or run.deadlock or run.sanitizer:
        return None
    return run.cycles


def site_probes(
    stripped: LitmusProgram,
    sites: Tuple[FenceSite, ...],
    store: RunStore,
    design: FenceDesign,
    baseline: Optional[int],
) -> Dict[str, Dict[str, Optional[int]]]:
    """Marginal cycle cost of one fence per (site, flavour):
    ``probes[site.label()][flavour] = cycles(single fence) - baseline``.

    Only flavours *design* can express are probed.  None marks a probe
    whose run did not complete cleanly (or a missing baseline).
    """
    profile = synthesis_profile(design)
    probes: Dict[str, Dict[str, Optional[int]]] = {}
    for site in sites:
        per_site: Dict[str, Optional[int]] = {}
        for flavour in sorted(profile.flavours, key=lambda f: f.value):
            cycles = measure_cycles(
                stripped, Placement.of({site: flavour}), store, design)
            if cycles is None or baseline is None:
                per_site[flavour.value] = None
            else:
                per_site[flavour.value] = cycles - baseline
        probes[site.label()] = per_site
    return probes
