"""Experiment-matrix runner.

The runner builds the (workload × fence design × core count) grid the
figure and table generators ask for, and the experiment farm runs it
(:mod:`repro.farm`), returning one :class:`RunSummary` per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.common.params import FenceDesign
from repro.workloads.base import load_all_workloads, run_workload


@dataclass
class RunSummary:
    """Picklable summary of one workload run."""

    name: str
    group: str
    design: str
    num_cores: int
    cycles: int
    completed: bool
    #: cycle breakdown summed over cores
    busy: float
    fence_stall: float
    other_stall: float
    #: machine seed the run used — reports carry it so any row can be
    #: reproduced exactly from the report alone
    seed: int = 0
    #: flat stats (MachineStats.summary())
    stats: Dict[str, float] = field(default_factory=dict)
    #: a resource budget (REPRO_MAX_*) cut this run off gracefully —
    #: first-class recorded outcome, not an exception
    degraded: bool = False
    degraded_reason: Optional[str] = None
    #: violations a warn-mode sanitizer (REPRO_SANITIZE)
    #: recorded during the run (strict raises instead)
    sanitizer_violations: int = 0
    #: machine-level cycle attribution, flattened to component ->
    #: core-cycles ("fence_stall.sf.drain": 1234.5, ...); None on rows
    #: stored before the profiler existed
    attrib: Optional[Dict[str, float]] = None

    @property
    def total(self) -> float:
        return self.busy + self.fence_stall + self.other_stall

    @property
    def throughput(self) -> float:
        # a run cut off before any commit has no meaningful rate
        if not self.cycles:
            return 0.0
        return 1e6 * self.stats.get("txn_commits", 0) / self.cycles

    @property
    def txn_cycles_per_commit(self) -> float:
        commits = self.stats.get("txn_commits", 0)
        if not commits:
            # zero commits means the per-commit cost is unbounded, not
            # free — consumers that want "skip this row" semantics
            # must test for it (figures.py maps it to 0.0)
            return float("inf")
        return self.stats.get("txn_cycles_total", 0.0) / commits


def run_summary(
    name: str,
    design_name: str,
    num_cores: int,
    scale: float,
    seed: int,
    sanitize: Optional[str] = None,
    budget=None,
) -> RunSummary:
    """One fully-summarized matrix run — what a farm ``matrix`` job
    executes.

    *sanitize*/*budget* default to the environment (``REPRO_SANITIZE``
    / ``REPRO_MAX_*``) exactly like :func:`run_workload`.
    """
    load_all_workloads()
    from repro.obs import Observability
    from repro.obs.attrib import flatten_node

    # attribution rides along on every matrix run: pure accumulator
    # writes, no event buffer, bit-identical simulated results — and
    # the figure generators get the fence-component split for free
    obs = Observability(trace=False, attrib=True)
    run = run_workload(
        name, FenceDesign[design_name], num_cores=num_cores,
        scale=scale, seed=seed, obs=obs, sanitize=sanitize, budget=budget,
    )
    stats = run.stats
    breakdown = stats.total_breakdown()
    flat = stats.summary()
    flat["txn_cycles_total"] = stats.txn_cycles
    flat["wee_sf_conversions"] = sum(stats.wee_sf_conversions)
    flat["wplus_recoveries"] = stats.wplus_recoveries
    flat["bounces"] = stats.bounces
    return RunSummary(
        name=name,
        group=run.group,
        design=str(run.design),
        num_cores=num_cores,
        cycles=run.cycles,
        completed=run.result.completed,
        seed=seed,
        busy=breakdown["busy"],
        fence_stall=breakdown["fence_stall"],
        other_stall=breakdown["other_stall"],
        stats=flat,
        degraded=run.result.degraded,
        degraded_reason=run.result.degraded_reason,
        sanitizer_violations=run.result.sanitizer_violations,
        attrib=flatten_node(obs.attrib.tree()["machine"]),
    )


def run_matrix(
    names: Sequence[str],
    designs: Sequence[FenceDesign],
    num_cores: int = 8,
    scale: float = 1.0,
    seed: int = 12345,
    core_counts: Optional[Sequence[int]] = None,
    farm_db: Optional[str] = None,
    farm_workers: Optional[int] = None,
) -> Dict[Tuple[str, str, int], RunSummary]:
    """Run the grid as a farm campaign; returns {(name, design, cores):
    summary}.

    The campaign runs on the store at *farm_db*, else
    ``REPRO_FARM_DB``'s, else a temporary one
    (:func:`~repro.farm.clients.campaign_rows`).  *farm_workers*
    defaults to :func:`~repro.farm.clients.default_farm_workers`; 0 runs
    every job in this process.
    """
    from repro.farm.clients import campaign_rows
    from repro.farm.spec import CampaignSpec

    spec = CampaignSpec.make(
        "matrix", names, designs, seeds=[seed],
        core_counts=list(core_counts) if core_counts else [num_cores],
        scale=scale,
    )
    rows = campaign_rows(farm_db, spec, farm_workers)
    summaries = [RunSummary(**row) for row in rows]
    return {(s.name, s.design, s.num_cores): s for s in summaries}
