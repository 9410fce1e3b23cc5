"""Timing cost model: replay placements through the clean simulator.

Two complementary measurements, both taken at jitter-free schedule
points (the paper's machine, default knobs, a small seed sweep):

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

Costs are means over a fixed seed sweep of the default point; the
simulator is deterministic per (program, design, point), so the whole
model is reproducible bit-for-bit — and cost runs come out of the
oracle's :class:`~repro.synth.search.RunTable`: the seed-1 cost point
*is* adversary point 0 and a single-fence probe *is* a search candidate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.common.params import FenceDesign, FenceFlavour
from repro.fences.base import synthesis_profile
from repro.synth.search import RunTable
from repro.synth.sites import FenceSite, Placement
from repro.verify.generator import LitmusProgram
from repro.verify.perturb import DEFAULT_POINT

#: default machine seeds for the cost sweep (cheap, fixed, clean points)
COST_SEEDS: Tuple[int, ...] = (1, 2, 3)


def cost_points(seeds: Tuple[int, ...] = COST_SEEDS):
    """Jitter-free default-knob points, one per sweep seed."""
    return tuple(replace(DEFAULT_POINT, seed=s) for s in seeds)


def measure_cycles(
    stripped: LitmusProgram,
    placement: Placement,
    design: FenceDesign,
    seeds: Tuple[int, ...] = COST_SEEDS,
    sanitize: str = "off",
    table: Optional[RunTable] = None,
) -> Optional[float]:
    """Mean end-to-end cycles of *placement*, or None if any cost run
    failed to complete cleanly (cost of a broken run is meaningless).
    Runs come from *table* (a fresh one when none is passed)."""
    table = RunTable.bound(table, design, sanitize)
    program = placement.apply(stripped, design)
    total = 0
    for point in cost_points(seeds):
        run = table.run(program, point)
        if not run.completed or run.error or run.deadlock or run.sanitizer:
            return None
        total += run.cycles
    return total / len(seeds)


def site_probes(
    stripped: LitmusProgram,
    sites: Tuple[FenceSite, ...],
    design: FenceDesign,
    baseline: Optional[float],
    seeds: Tuple[int, ...] = COST_SEEDS,
    sanitize: str = "off",
    table: Optional[RunTable] = None,
) -> Dict[str, Dict[str, Optional[float]]]:
    """Marginal cycle cost of one fence per (site, flavour):
    ``probes[site.label()][flavour] = cycles(single fence) - baseline``.

    Only flavours the design can express are probed.  None marks a
    probe whose run did not complete cleanly (or a missing baseline).
    """
    profile = synthesis_profile(design)
    probes: Dict[str, Dict[str, Optional[float]]] = {}
    for site in sites:
        per_site: Dict[str, Optional[float]] = {}
        for flavour in sorted(profile.flavours, key=lambda f: f.value):
            cycles = measure_cycles(
                stripped, Placement.of({site: flavour}), design,
                seeds=seeds, sanitize=sanitize, table=table,
            )
            if cycles is None or baseline is None:
                per_site[flavour.value] = None
            else:
                per_site[flavour.value] = round(cycles - baseline, 1)
        probes[site.label()] = per_site
    return probes
