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

**Run store.**  A run is a pure function of (program, design, point,
sanitizer mode), and one design's synthesis asks for the same run many
times over (audit after search, CEGAR re-search, a cost point that is
an adversary point), so every oracle and cost run comes out of the
call's :class:`~repro.verify.oracles.RunStore`; budgets keep counting
*verdicts*, not store misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

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
from repro.verify.oracles import RunStore
from repro.verify.perturb import SchedulePoint
from repro.verify.shrink import ddmin

#: at most this many legal placements → exhaustive search; above it,
#: ddmin-descent
EXHAUSTIVE_CAP = 512
#: ddmin property-evaluation budget on the descent path
SHRINK_BUDGET = 200


class BudgetExhausted(Exception):
    """The search ran out of oracle verdicts or wall-clock budget (a
    verdict counts whether or not the run store already held its run)."""

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


class PlacementOracle:
    """Budgeted judge: does a placement pass on every adversary point?

    Counts every verdict (``runs_used``; the runs of *design* come from
    *store*), reorders points counterexample-first, and remembers which
    point killed which placement so the pruning lemma can hand later
    candidates a lethal point hint.
    """

    def __init__(
        self,
        stripped: LitmusProgram,
        store: RunStore,
        design: FenceDesign,
        points: Tuple[SchedulePoint, ...],
        max_runs: int = 4000,
        deadline: Optional[Callable[[], bool]] = None,
    ):
        self.stripped = stripped
        self.store = store
        self.design = design
        self.points = tuple(points)
        self.max_runs = max_runs
        self.deadline = deadline
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
        return classify_run(self.store.run(program, self.design, point))

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
    store: RunStore,
    design: FenceDesign,
    points: Tuple[SchedulePoint, ...],
    max_runs: int = 4000,
    deadline: Optional[Callable[[], bool]] = None,
) -> SearchOutcome:
    """Find minimal SC-safe placements of *design* over *sites*."""
    profile = synthesis_profile(design)
    oracle = PlacementOracle(stripped, store, design, points,
                             max_runs=max_runs, deadline=deadline)
    outcome = SearchOutcome(design=design)
    try:
        if count_legal_placements(len(sites), profile) <= EXHAUSTIVE_CAP:
            _exhaustive(oracle, sites, profile, outcome)
        else:
            _descent(oracle, sites, profile, outcome)
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
             outcome: SearchOutcome) -> None:
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
                           max_runs=SHRINK_BUDGET)
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
