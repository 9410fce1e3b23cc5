"""The placement search: counterexample-guided lattice enumeration.

Per design, the synthesizer searches the placement lattice of
:mod:`repro.synth.sites` bottom-up (cheapest first) for the minimal
placements that satisfy the SC oracle on every adversary schedule:

* **exhaustive path** (small site counts): enumerate every legal
  placement in ascending strength-score order.  Because the score is a
  strict linear extension of the lattice order, every weakening of a
  candidate has already been visited; a candidate is only *tested* if
  it covers no known passing minimum, so every passer is 1-minimal by
  construction — no post-hoc shrinking needed.
* **ddmin-descent path** (large site counts): verify the strongest
  legal placement, shrink its site set with the generalized
  :func:`repro.verify.shrink.ddmin` under the predicate "this subset
  still passes the oracle", then demote sf→wf one site at a time to a
  local minimum.  Yields one minimum instead of the full antichain.

**Pruning lemma.**  Fences only restrict reordering: if a schedule
breaks placement P (an SCV appears), it also breaks every weakening of
P — removing or demoting fences can only admit more reorderings at the
same schedule point.  The oracle exploits the contrapositive: before
sweeping all points for a candidate C, it first replays the recorded
counterexample points of every known-failing placement that covers C
(C ⊑ P means P's counterexample transfers), plus the most recently
lethal points.  Failing candidates therefore usually die on one
point instead of a full sweep.

**Run table.**  A run is a pure function of (program, design, point,
sanitizer mode), and one design's synthesis asks for the same run many
times over (audit after search, CEGAR re-search, cost points that are
adversary points), so every oracle and cost run comes out of a
:class:`RunTable`; budgets keep counting *verdicts*, not table misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.params import FenceDesign, FenceFlavour
from repro.fences.base import SynthProfile, synthesis_profile
from repro.synth.sites import (
    STRENGTH,
    FenceSite,
    Placement,
    all_placements,
    count_legal_placements,
)
from repro.verify.generator import LitmusProgram
from repro.verify.oracles import ProgramRun, run_program
from repro.verify.perturb import SchedulePoint
from repro.verify.shrink import ddmin


class BudgetExhausted(Exception):
    """The search ran out of oracle verdicts or wall-clock budget (a
    verdict counts whether or not the run table already held its run)."""

    def __init__(self, kind: str):
        super().__init__(f"synthesis budget exhausted ({kind})")
        self.kind = kind  # "runs" | "wall"


@dataclass(frozen=True)
class Counterexample:
    """One oracle violation: which adversary point broke a placement."""

    point_index: int
    reason: str


def classify_run(run) -> Optional[str]:
    """The oracle verdict for one run (None = SC-safe and live).

    Stricter than verify's :func:`check_invariants`: an SCV is a
    failure whether or not the candidate carries fences — the whole
    point of synthesis is deciding if the fences are *sufficient*.
    """
    if run.error is not None:
        return f"simulator-error: {run.error}"
    if run.sanitizer is not None:
        return f"sanitizer: {run.sanitizer}"
    if run.deadlock is not None:
        return f"deadlock: {run.deadlock}"
    if not run.completed:
        return f"livelock: cycle cap at {run.cycles} cycles"
    if run.scv_found:
        return f"scv: dependence cycle of length {len(run.scv)}"
    return None


class RunTable:
    """``(program, point) -> ProgramRun`` for one design and sanitizer
    mode: the only place synthesis simulates, once per key.  It lives
    as long as its owner — one design of one ``run_synthesis`` call, or
    one oracle / cost call that was handed none."""

    def __init__(self, design: FenceDesign, sanitize: str = "off"):
        self.design = design
        self.sanitize = sanitize
        #: one entry per simulator run made (a miss)
        self.runs: Dict[Tuple[LitmusProgram, SchedulePoint], ProgramRun] = {}

    @classmethod
    def bound(cls, table: "Optional[RunTable]", design: FenceDesign,
              sanitize: str) -> "RunTable":
        """*table*, which must be for this design and mode — or a fresh
        one when the caller passed none."""
        if table is None:
            return cls(design, sanitize)
        if (table.design, table.sanitize) != (design, sanitize):
            raise ValueError(
                f"run table bound to {table.design.value}/{table.sanitize}"
                f", not {design.value}/{sanitize}")
        return table

    def run(self, program: LitmusProgram, point: SchedulePoint) -> ProgramRun:
        key = (program, point)
        run = self.runs.get(key)
        if run is None:
            run = self.runs[key] = run_program(
                program, self.design, point,
                faults=point.injector(), sanitize=self.sanitize)
        return run


class PlacementOracle:
    """Budgeted judge: does a placement pass on every adversary point?

    Counts every verdict (``runs_used``; the runs come from *table*,
    its own unless one is passed), reorders points counterexample-first,
    and remembers which point killed which placement so the pruning
    lemma can hand later candidates a lethal point hint.
    """

    def __init__(
        self,
        stripped: LitmusProgram,
        design: FenceDesign,
        points: Tuple[SchedulePoint, ...],
        max_runs: int = 4000,
        sanitize: str = "off",
        deadline: Optional[Callable[[], bool]] = None,
        table: Optional[RunTable] = None,
    ):
        self.stripped = stripped
        self.design = design
        self.points = tuple(points)
        self.max_runs = max_runs
        self.sanitize = sanitize
        self.deadline = deadline
        self.table = RunTable.bound(table, design, sanitize)
        self.runs_used = 0
        #: point indices by recency of a kill (most recent first)
        self._recent_killers: List[int] = []
        #: (failed placement, killer point index), for the lemma hints
        self.failures: List[Tuple[Placement, int]] = []
        #: candidates rejected by a hinted/recent point on the 1st run
        self.prune_hits = 0

    def _run_one(self, program: LitmusProgram,
                 point: SchedulePoint) -> Optional[str]:
        if self.runs_used >= self.max_runs:
            raise BudgetExhausted("runs")
        if self.deadline is not None and self.deadline():
            raise BudgetExhausted("wall")
        self.runs_used += 1
        return classify_run(self.table.run(program, point))

    def _point_order(self, placement: Placement) -> List[int]:
        """All point indices, lemma hints and recent killers first."""
        order: List[int] = []
        for failed, idx in reversed(self.failures):
            # C ⊑ P: P's counterexample point transfers to C
            if idx not in order and failed.covers(placement):
                order.append(idx)
        for idx in self._recent_killers:
            if idx not in order:
                order.append(idx)
        hinted = len(order)
        for idx in range(len(self.points)):
            if idx not in order:
                order.append(idx)
        self._hinted = hinted
        return order

    def check(self, placement: Placement) -> Optional[Counterexample]:
        """Run *placement* over every point (counterexample-guided
        order); None = passed all points."""
        program = placement.apply(self.stripped, self.design)
        order = self._point_order(placement)
        for rank, idx in enumerate(order):
            reason = self._run_one(program, self.points[idx])
            if reason is not None:
                if idx in self._recent_killers:
                    self._recent_killers.remove(idx)
                self._recent_killers.insert(0, idx)
                self.failures.append((placement, idx))
                if rank < self._hinted:
                    self.prune_hits += 1
                return Counterexample(point_index=idx, reason=reason)
        return None


@dataclass
class SearchOutcome:
    """What one per-design search produced."""

    design: FenceDesign
    #: the minimal passing placements found (antichain; descent path
    #: yields at most one)
    minima: List[Placement] = field(default_factory=list)
    status: str = "ok"  # ok | no-solution | exhausted-runs | exhausted-wall
    strategy: str = "exhaustive"  # exhaustive | descent
    runs_used: int = 0
    candidates_tested: int = 0
    prune_hits: int = 0
    #: counterexample of the strongest placement (no-solution only)
    failure: Optional[Counterexample] = None


def strongest_placement(sites: Tuple[FenceSite, ...],
                        profile: SynthProfile) -> Placement:
    """The top of the legal lattice: every site fenced, strongest
    expressible flavour (all-sf where available, else all-wf)."""
    flavour = max(profile.flavours, key=lambda f: STRENGTH[f])
    return Placement.of({site: flavour for site in sites})


def synthesize(
    stripped: LitmusProgram,
    sites: Tuple[FenceSite, ...],
    design: FenceDesign,
    points: Tuple[SchedulePoint, ...],
    max_runs: int = 4000,
    sanitize: str = "off",
    exhaustive_cap: int = 512,
    shrink_budget: int = 200,
    deadline: Optional[Callable[[], bool]] = None,
    table: Optional[RunTable] = None,
) -> SearchOutcome:
    """Find minimal SC-safe placements of *design* over *sites*."""
    profile = synthesis_profile(design)
    oracle = PlacementOracle(stripped, design, points, max_runs=max_runs,
                             sanitize=sanitize, deadline=deadline,
                             table=table)
    outcome = SearchOutcome(design=design)
    try:
        if count_legal_placements(len(sites), profile) <= exhaustive_cap:
            _exhaustive(oracle, sites, profile, outcome)
        else:
            _descent(oracle, sites, profile, outcome,
                     shrink_budget=shrink_budget)
    except BudgetExhausted as exc:
        outcome.status = f"exhausted-{exc.kind}"
    outcome.runs_used = oracle.runs_used
    outcome.prune_hits = oracle.prune_hits
    return outcome


def _exhaustive(oracle: PlacementOracle, sites, profile: SynthProfile,
                outcome: SearchOutcome) -> None:
    outcome.strategy = "exhaustive"
    last_failure: Optional[Counterexample] = None
    for candidate in all_placements(sites, profile):
        if any(candidate.covers(m) for m in outcome.minima):
            continue  # strengthening of a known minimum: never minimal
        outcome.candidates_tested += 1
        ce = oracle.check(candidate)
        if ce is None:
            outcome.minima.append(candidate)
        else:
            last_failure = ce
    if not outcome.minima:
        outcome.status = "no-solution"
        outcome.failure = last_failure


def _descent(oracle: PlacementOracle, sites, profile: SynthProfile,
             outcome: SearchOutcome, shrink_budget: int) -> None:
    outcome.strategy = "descent"
    top_flavour = max(profile.flavours, key=lambda f: STRENGTH[f])
    top = strongest_placement(sites, profile)
    outcome.candidates_tested += 1
    ce = oracle.check(top)
    if ce is not None:
        outcome.status = "no-solution"
        outcome.failure = ce
        return

    def keeps_passing(subset: list) -> bool:
        placement = Placement.of({s: top_flavour for s in subset})
        outcome.candidates_tested += 1
        return oracle.check(placement) is None

    kept, _dd_runs = ddmin(list(sites), predicate=keeps_passing,
                           max_runs=shrink_budget)
    current = Placement.of({s: top_flavour for s in kept})

    # demotion descent: one sf -> wf at a time, to a local minimum
    if FenceFlavour.WF in profile.flavours and top_flavour is FenceFlavour.SF:
        changed = True
        while changed:
            changed = False
            for site, flavour in current.assignment:
                if flavour is not FenceFlavour.SF:
                    continue
                mapping = dict(current.assignment)
                mapping[site] = FenceFlavour.WF
                demoted = Placement.of(mapping)
                if not demoted.legal(profile):
                    continue
                outcome.candidates_tested += 1
                if oracle.check(demoted) is None:
                    current = demoted
                    changed = True
                    break
    outcome.minima.append(current)
