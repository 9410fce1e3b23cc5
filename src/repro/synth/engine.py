"""The synthesis engine: search + audit + cost, per design.

:func:`run_synthesis` drives the whole ``repro synth`` pipeline for one
program across a set of fence designs:

1. extract the fence sites (:mod:`repro.synth.sites`) and strip the
   program;
2. search the placement lattice for the minimal SC-safe placements
   over the jitter-armed adversary points (:mod:`repro.synth.search`);
3. **audit** every minimum at :data:`AUDIT_FACTOR` × the search
   schedule budget (the adversary stream is prefix-stable, so the audit
   points strictly extend the search points); an audit *rejection*
   feeds the killer point back into the search set and re-searches
   (CEGAR, up to :data:`MAX_REFINEMENTS` rounds), so surviving minima
   pass the full audit set, and every expressible one-step weakening
   must fail on at least one audit point;
4. replay survivors through the clean timing simulator
   (:mod:`repro.synth.cost`) and rank them.

The report is deterministic for a fixed (program, designs, seed,
config): no timestamps, no environment leakage, stable ordering.  A
:class:`~repro.sim.governor.RunBudget` bounds one :func:`run_synthesis`
call by wall-clock time (event budgets are a per-run concept and are
not consulted here); on breach the affected design is marked
``exhausted-wall`` and later designs are skipped, never half-reported.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.params import FenceDesign
from repro.sim.governor import RunBudget
from repro.synth import cost as cost_mod
from repro.synth.programs import program_for_spec
from repro.synth.search import (
    EXHAUSTIVE_CAP,
    SHRINK_BUDGET,
    BudgetExhausted,
    Counterexample,
    PlacementOracle,
    synthesize,
)
from repro.synth.sites import (
    FenceSite,
    Placement,
    count_legal_placements,
    extract_sites,
)
from repro.fences.base import synthesis_profile
from repro.verify.generator import LitmusProgram
from repro.verify.oracles import PAPER_DESIGNS, RunStore
from repro.verify.perturb import adversary_points

SCHEMA = "repro-synth-report/v1"

#: the audit runs at this multiple of the search schedule budget
AUDIT_FACTOR = 2
#: CEGAR rounds: when the audit rejects a minimum, its killer point
#: joins the search set and the search re-runs.  Each round adds a
#: distinct point from the finite audit set, so the loop terminates;
#: this cap only bounds the worst case.
MAX_REFINEMENTS = 8


@dataclass(frozen=True)
class SynthConfig:
    """Everything that determines a synthesis run (and its report)."""

    program: str = "sb"
    designs: Tuple[FenceDesign, ...] = PAPER_DESIGNS
    seed: int = 1
    #: adversary schedule points per search
    num_points: int = 12
    #: fence-site extraction: "annotated" | "auto" | None (= annotated
    #: when the program carries fences, else auto)
    site_mode: Optional[str] = None
    #: oracle-verdict budget per design (search and audit separately)
    max_runs: int = 4000
    sanitize: str = "off"

    def to_dict(self) -> dict:
        """The settable fields, and the module constants the run used
        under the names they had as fields."""
        return {
            "program": self.program,
            "designs": [d.value for d in self.designs],
            "seed": self.seed,
            "num_points": self.num_points,
            "site_mode": self.site_mode,
            "max_runs": self.max_runs,
            "exhaustive_cap": EXHAUSTIVE_CAP,
            "shrink_budget": SHRINK_BUDGET,
            "audit": True,
            "audit_factor": AUDIT_FACTOR,
            "max_refinements": MAX_REFINEMENTS,
            "sanitize": self.sanitize,
        }


@dataclass
class SynthReport:
    """The full ``repro synth`` result: one entry per design."""

    config: SynthConfig
    program_info: dict
    #: design.value -> per-design result dict, in config.designs order
    designs: "Dict[str, dict]" = field(default_factory=dict)
    #: oracle verdicts delivered (search + audit)
    total_runs: int = 0
    #: simulator runs made (search + audit + cost; a design-inert run
    #: once for all designs) — not in ``to_dict()``
    simulated_runs: int = 0
    #: simulator runs that restored their warm-up instead of
    #: simulating it (``RunStore``) — not in ``to_dict()``
    warmups_restored: int = 0

    @property
    def ok(self) -> bool:
        """Every design found a minimum, every minimum survived its
        audit, and every expressible weakening failed."""
        for entry in self.designs.values():
            if entry["status"] != "ok" or not entry["placements"]:
                return False
            for placement in entry["placements"]:
                audit = placement["audit"]
                if not audit["passed"] or not audit["minimal"]:
                    return False
        return True

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.config.to_dict(),
            "program": self.program_info,
            "designs": self.designs,
            "total_runs": self.total_runs,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


def _ce_dict(ce: Optional[Counterexample]) -> Optional[dict]:
    if ce is None:
        return None
    return {"point_index": ce.point_index, "reason": ce.reason}


def _expressible(placement: Placement, design: FenceDesign) -> bool:
    """May *design* actually execute this placement?  Flavour
    expressibility and group legality in one predicate: S+ cannot run
    a wf at all, and SW+ cannot run an all-wf group (the taxonomy's
    termination argument) — either way the placement is not a real
    alternative, so it does not count against minimality."""
    return placement.legal(synthesis_profile(design))


def _audit_minimum(oracle: PlacementOracle, minimum: Placement) -> dict:
    """Re-verify *minimum* on the extended point set and demand that
    every *legal* one-step weakening fails somewhere on it.

    Minimality is relative to the design's legal placement space: a
    weakening the design cannot execute (wf under S+, an all-wf group
    under SW+) is reported ``expressible: false`` and skipped, exactly
    as the search never enumerated it."""
    ce = oracle.check(minimum)
    weakenings: List[dict] = []
    minimal = True
    for weaker in minimum.weakenings():
        entry = {
            "placement": weaker.key(),
            "expressible": _expressible(weaker, oracle.design),
            "failed": None,
            "counterexample": None,
        }
        if entry["expressible"]:
            w_ce = oracle.check(weaker)
            entry["failed"] = w_ce is not None
            entry["counterexample"] = _ce_dict(w_ce)
            if w_ce is None:
                minimal = False
        weakenings.append(entry)
    return {
        "points": len(oracle.points),
        "passed": ce is None,
        "counterexample": _ce_dict(ce),
        "weakenings": weakenings,
        "minimal": minimal,
    }


def _placement_entry(placement: Placement, cycles: Optional[int],
                     baseline: Optional[int]) -> dict:
    overhead = None
    if cycles is not None and baseline is not None:
        overhead = cycles - baseline
    return {
        "placement": placement.key(),
        "fences": [
            {"site": site.label(), "flavour": flavour.value}
            for site, flavour in placement.assignment
        ],
        "num_fences": placement.num_fences,
        "num_wf": placement.num_wf,
        "num_sf": placement.num_sf,
        "cycles": cycles,
        "overhead_cycles": overhead,
        "sc_safe": True,  # search only emits oracle-passing placements
    }


def _rank_key(entry: dict):
    cycles = entry["cycles"]
    return (
        cycles is None,  # unmeasurable placements sink to the bottom
        cycles if cycles is not None else 0,
        entry["num_sf"],
        entry["num_fences"],
        entry["placement"],
    )


def _synth_one_design(
    store: RunStore,
    design: FenceDesign,
    stripped: LitmusProgram,
    sites: Tuple[FenceSite, ...],
    config: SynthConfig,
    deadline,
) -> Tuple[dict, int]:
    """Search + audit + cost for *design*; returns (entry, oracle
    verdicts delivered).

    The search and the audit are a CEGAR loop: a minimum the search
    accepts but the double-budget audit rejects means the search's
    point set was too weak — the audit's killer point joins the search
    set and the search re-runs.  Every round adds a distinct point
    from the finite audit set, so on a clean exit every reported
    minimum passes the *full* audit set.

    Every round, the audit and the cost sweep share *store*; a verdict
    it already holds the run for is still a verdict against
    ``max_runs``.
    """
    audit_points = adversary_points(
        config.seed, config.num_points * AUDIT_FACTOR)
    points = list(adversary_points(config.seed, config.num_points))
    runs = 0
    refinements = 0
    while True:
        outcome = synthesize(
            stripped, sites, store, design, tuple(points),
            max_runs=config.max_runs, deadline=deadline,
        )
        runs += outcome.runs_used
        if outcome.status != "ok":
            break
        audit_oracle = PlacementOracle(
            stripped, store, design, tuple(audit_points),
            max_runs=config.max_runs, deadline=deadline,
        )
        try:
            killers = [audit_oracle.check(m) for m in outcome.minima]
        except BudgetExhausted as exc:
            outcome.status = f"exhausted-{exc.kind}"
            runs += audit_oracle.runs_used
            break
        new_points = [
            audit_points[ce.point_index] for ce in killers
            if ce is not None
            and audit_points[ce.point_index] not in points
        ]
        if not new_points or refinements >= MAX_REFINEMENTS:
            break
        runs += audit_oracle.runs_used
        points.extend(dict.fromkeys(new_points))  # ordered, deduped
        refinements += 1

    entry: dict = {
        "status": outcome.status,
        "strategy": outcome.strategy,
        "search_points": len(points),
        "refinements": refinements,
        "num_sites": len(sites),
        "num_legal_placements": count_legal_placements(
            len(sites), synthesis_profile(design)),
        "search_runs": outcome.runs_used,
        "candidates_tested": outcome.candidates_tested,
        "prune_hits": outcome.prune_hits,
        "failure": _ce_dict(outcome.failure),
        "baseline_cycles": None,
        "site_probes": {},
        "placements": [],
    }
    if outcome.status != "ok" or not outcome.minima:
        return entry, runs

    baseline = cost_mod.measure_cycles(
        stripped, Placement.empty(), store, design)
    entry["baseline_cycles"] = baseline
    entry["site_probes"] = cost_mod.site_probes(
        stripped, sites, store, design, baseline)

    try:
        for minimum in outcome.minima:
            cycles = cost_mod.measure_cycles(
                stripped, minimum, store, design)
            placement_entry = _placement_entry(minimum, cycles, baseline)
            placement_entry["audit"] = _audit_minimum(audit_oracle, minimum)
            entry["placements"].append(placement_entry)
    except BudgetExhausted as exc:
        entry["status"] = f"exhausted-{exc.kind}"
        entry["placements"] = []
    runs += audit_oracle.runs_used
    entry["audit_runs"] = audit_oracle.runs_used
    entry["placements"].sort(key=_rank_key)
    for rank, placement_entry in enumerate(entry["placements"], start=1):
        placement_entry["rank"] = rank
    return entry, runs


def _deadline_from_budget(budget: Optional[RunBudget]):
    """A whole-synthesis wall-clock cutoff check from a RunBudget."""
    if budget is None or budget.max_wall_secs is None:
        return None
    start = time.monotonic()
    return lambda: time.monotonic() - start >= budget.max_wall_secs


def run_synthesis(
    config: SynthConfig,
    budget: Optional[RunBudget] = None,
) -> SynthReport:
    """Synthesize minimal fence placements for every configured design.

    *budget* (a :class:`RunBudget`; None runs unbounded) bounds the
    call by its wall-clock leg.

    Every design's runs come out of one
    :class:`~repro.verify.oracles.RunStore`, which dies with the call:
    a run a later design can take (``repro.verify.oracles.shares_run``)
    is simulated once for all the designs that ask for it, and a
    warm-up once for every run that starts with it.

    Nothing is checkpointed here: ``repro synth`` runs the whole call
    as one farm job (:func:`repro.farm.clients.farm_synthesis`), and
    the farm store is what a repeated synthesis is served from.
    """
    deadline = _deadline_from_budget(budget)

    program = program_for_spec(config.program, seed=config.seed)
    site_mode = config.site_mode
    if site_mode is None:
        site_mode = "annotated" if program.has_fences else "auto"
    sites = extract_sites(program, mode=site_mode)
    stripped = program.stripped()

    report = SynthReport(
        config=config,
        program_info={
            "name": program.name,
            "shape": program.shape,
            "num_threads": program.num_threads,
            "num_vars": program.num_vars,
            "ops": program.describe(),
            "stripped_ops": stripped.describe(),
            "site_mode": site_mode,
            "sites": [s.label() for s in sites],
        },
    )
    store = RunStore(config.sanitize)
    for i, design in enumerate(config.designs):
        if deadline is not None and deadline():
            report.designs[design.value] = {
                "status": "exhausted-wall",
                "strategy": None,
                "placements": [],
                "site_probes": {},
                "baseline_cycles": None,
                "failure": None,
            }
        else:
            entry, runs = _synth_one_design(
                store, design, stripped, sites, config, deadline)
            report.designs[design.value] = entry
            report.total_runs += runs
        store.retain(config.designs[i + 1:])
    report.simulated_runs = store.simulated
    report.warmups_restored = store.restored
    return report
