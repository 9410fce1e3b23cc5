"""The chaos harness: sweep fault scenarios against the fence designs.

One **case** is ``(scenario, design, seed)``: the seed picks both the
litmus program (:func:`repro.verify.generator.generate_program`) and
every injection decision (:class:`repro.faults.FaultInjector`), so a
failing case replays *exactly* from its three coordinates — no trace
files, no recorded schedules.

Per case the harness checks the verify oracles (SC-with-fences,
no-deadlock, termination, recovery soundness) plus the chaos-specific
**bounded-recovery** oracle: more W+ recoveries than the plan's
``recovery_bound`` in one litmus-sized run is a recovery livelock even
if the run eventually completed.

A failing case can be shrunk: ddmin over the injector's fired-injection
log finds the minimal subset of injections that still breaks the
machine (replayed via the injector's ``allowed`` allow-list).

``run_chaos_matrix`` sweeps a scenario × design × seed grid, locally
or as a farm campaign, and emits a JSON report.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.params import FenceDesign
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, make_plan
from repro.verify.generator import generate_program
from repro.verify.oracles import PAPER_DESIGNS, check_invariants, run_program
from repro.verify.perturb import SchedulePoint
from repro.verify.shrink import ddmin


@dataclass
class ChaosCase:
    """Outcome of one (scenario, design, seed) chaos run."""

    scenario: str
    design: str
    seed: int
    #: the plan is protocol-legal (oracle violations are real failures)
    legal: bool
    violations: List[str] = field(default_factory=list)
    cycles: int = 0
    recoveries: int = 0
    bounces: int = 0
    storm_demotions: int = 0
    #: fired/consulted injection counts from the injector
    faults: Dict[str, dict] = field(default_factory=dict)
    #: minimal failing injection subset, when shrinking ran
    shrunk: Optional[List[Tuple[str, int]]] = None
    shrink_runs: int = 0
    #: watchdog/sanitizer post-mortem artifact, when one was written
    diagnostics_path: Optional[str] = None
    #: sanitizer mode the case ran under ("off" preserves the legacy
    #: catch-at-timeout behaviour)
    sanitize: str = "strict"
    #: first sanitizer violation, when the sanitizer fired
    sanitizer: Optional[str] = None
    #: cycle-attribution postmortem artifact, when one was written
    attrib_path: Optional[str] = None

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if self.shrunk is not None:
            d["shrunk"] = [list(key) for key in self.shrunk]
        return d


def _case_violations(run, plan: FaultPlan) -> List[str]:
    """Verify oracles + the chaos bounded-recovery oracle."""
    violations = check_invariants(run)
    if run.recoveries > plan.recovery_bound:
        violations.append(
            f"unbounded-recovery: {run.recoveries} W+ recoveries "
            f"(bound {plan.recovery_bound}) — recovery livelock"
        )
    return violations


def _execute(
    plan: FaultPlan,
    design: FenceDesign,
    seed: int,
    allowed=None,
    diag_dir: Optional[str] = None,
    sanitize: str = "off",
    attrib=None,
    budget=None,
):
    """One deterministic chaos execution; returns (run, injector)."""
    program = generate_program(seed)
    injector = FaultInjector(plan, allowed=allowed)
    run = run_program(
        program,
        design,
        point=SchedulePoint(seed=seed),
        faults=injector,
        params_overrides=plan.params_overrides,
        diag_dir=diag_dir,
        sanitize=sanitize,
        attrib=attrib,
        budget=budget,
    )
    return run, injector


def _write_attrib_postmortem(
    attrib, case: "ChaosCase", diag_dir: str,
) -> Optional[str]:
    """Attribution report next to the deadlock/sanitizer diagnostics:
    *where the failing case's cycles went* (e.g. a recovery livelock
    shows up as a dominant ``fence_stall.recovery`` subtree)."""
    from repro.obs.profile import build_report

    label = f"chaos:{case.scenario}:{case.design}:r{case.seed}"
    report = build_report(
        attrib.tree(label=label), "run",
        provenance={
            "workload": "chaos-litmus",
            "design": case.design,
            "seed": case.seed,
            "fault_scenario": case.scenario,
            "sanitize": case.sanitize,
        },
        events=attrib.design_events(),
        hot_lines=attrib.top_lines(),
    )
    path = os.path.join(
        diag_dir,
        f"attrib_{case.scenario}_{case.design}_r{case.seed}.json",
    )
    try:
        os.makedirs(diag_dir, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError:
        return None
    return path


def run_chaos_case(
    scenario: str,
    design: FenceDesign,
    seed: int,
    diag_dir: Optional[str] = None,
    sanitize: str = "strict",
    budget=None,
) -> ChaosCase:
    """Run one chaos case and classify it against the oracles.

    The runtime sanitizer rides along as an extra oracle (default
    ``strict``): a protocol-illegal plan like ``illegal_drop`` is then
    caught at the *first* structurally-violating cycle (an event parked
    beyond the delivery horizon) instead of only surfacing when the
    watchdog times the run out.  Pass ``sanitize="off"`` for the legacy
    catch-at-timeout behaviour.  *budget* is an optional
    :class:`~repro.sim.governor.RunBudget`: a wedged case degrades
    gracefully instead of wedging its worker (the farm sets one per
    job).
    """
    plan = make_plan(scenario, seed)
    attrib = None
    if diag_dir:
        from repro.obs import CycleAttribution

        attrib = CycleAttribution()
    run, injector = _execute(plan, design, seed, diag_dir=diag_dir,
                             sanitize=sanitize, attrib=attrib,
                             budget=budget)
    case = ChaosCase(
        scenario=scenario,
        design=design.value,
        seed=seed,
        legal=plan.legal,
        violations=_case_violations(run, plan),
        cycles=run.cycles,
        recoveries=run.recoveries,
        bounces=run.bounces,
        storm_demotions=run.storm_demotions,
        faults=injector.summary(),
        sanitize=sanitize,
        sanitizer=run.sanitizer,
    )
    if diag_dir and (run.deadlock or run.sanitizer):
        case.diagnostics_path = _newest_artifact(diag_dir)
    if attrib is not None and case.failed:
        case.attrib_path = _write_attrib_postmortem(attrib, case, diag_dir)
    return case


def _newest_artifact(diag_dir: str) -> Optional[str]:
    try:
        files = [
            os.path.join(diag_dir, f)
            for f in os.listdir(diag_dir)
            if f.startswith(("deadlock_", "sanitizer_"))
            and f.endswith(".json")
        ]
    except OSError:
        return None
    return max(files, key=os.path.getmtime) if files else None


def shrink_failing_case(
    case: ChaosCase,
    max_runs: int = 200,
) -> ChaosCase:
    """ddmin the failing *case* to a minimal injection subset.

    Re-runs the exact case unrestricted to recover the fired-injection
    log, then minimizes the allow-list while the oracles still flag a
    violation.  The result is recorded on the returned case
    (``shrunk`` / ``shrink_runs``); a case that no longer fails is
    returned unchanged.
    """
    design = FenceDesign(case.design)
    plan = make_plan(case.scenario, case.seed)
    # shrink under the same oracle set the case was detected with: a
    # minimized subset (e.g. one surviving PutM drop) may never deadlock
    # yet still be structurally illegal — only the sanitizer sees it.
    sanitize = case.sanitize
    run, injector = _execute(plan, design, case.seed, sanitize=sanitize)
    if not _case_violations(run, plan):
        return case  # not reproducible (should not happen: deterministic)

    def still_fails(subset: list) -> bool:
        sub_run, _ = _execute(plan, design, case.seed, allowed=subset,
                              sanitize=sanitize)
        return bool(_case_violations(sub_run, plan))

    minimized, runs = ddmin(list(injector.log), predicate=still_fails,
                            max_runs=max_runs)
    case.shrunk = [tuple(key) for key in minimized]
    case.shrink_runs = runs
    return case


# ----------------------------------------------------------------------
# the matrix sweep
# ----------------------------------------------------------------------

def _case_from_record(rec: dict) -> ChaosCase:
    rec = dict(rec)
    shrunk = rec.pop("shrunk", None)
    case = ChaosCase(**rec)
    if shrunk is not None:
        case.shrunk = [tuple(k) for k in shrunk]
    return case


def run_chaos_matrix(
    scenarios: Sequence[str],
    designs: Sequence[FenceDesign] = PAPER_DESIGNS,
    seeds: Sequence[int] = (),
    shrink: bool = False,
    diag_dir: Optional[str] = None,
    progress=None,
    sanitize: str = "strict",
    farm_db: Optional[str] = None,
    farm_workers: Optional[int] = None,
) -> dict:
    """Sweep scenario × design × seed; return the chaos report dict.

    *progress* is an optional ``callable(case)`` fired per completed
    case.  *sanitize* sets the per-case sanitizer mode (see
    :func:`run_chaos_case`); sanitizer violations are first-class
    recorded outcomes.

    With *farm_db* the sweep runs as a campaign on the durable
    experiment farm (leased jobs, crash-safe store, content-addressed
    result cache) — an interrupted sweep resumes there; shrinking still
    happens locally on the collected failing cases, deterministically.
    """
    if farm_db:
        from repro.farm.clients import farm_chaos_cases

        cases = farm_chaos_cases(
            scenarios, designs, seeds, db=farm_db, workers=farm_workers,
            sanitize=sanitize, diag_dir=diag_dir,
        )
        if shrink:
            cases = [
                shrink_failing_case(c) if c.failed else c for c in cases
            ]
        if progress is not None:
            for case in cases:
                progress(case)
        return _chaos_report(scenarios, designs, seeds, cases)
    cases: List[ChaosCase] = []
    for scenario in scenarios:
        for design in designs:
            for seed in seeds:
                case = run_chaos_case(
                    scenario, design, seed, diag_dir=diag_dir,
                    sanitize=sanitize,
                )
                if shrink and case.failed:
                    case = shrink_failing_case(case)
                cases.append(case)
                if progress is not None:
                    progress(case)
    return _chaos_report(scenarios, designs, seeds, cases)


def _chaos_report(scenarios, designs, seeds, cases: List[ChaosCase]) -> dict:
    failed_legal = [c for c in cases if c.failed and c.legal]
    caught_illegal = [c for c in cases if c.failed and not c.legal]
    missed_illegal = [c for c in cases if not c.failed and not c.legal]
    return {
        "total_cases": len(cases),
        "scenarios": list(scenarios),
        "designs": [d.value for d in designs],
        "seeds": list(seeds),
        "failed_legal": len(failed_legal),
        "caught_illegal": len(caught_illegal),
        "missed_illegal": len(missed_illegal),
        "cases": [c.to_dict() for c in cases],
    }
