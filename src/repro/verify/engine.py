"""The budgeted schedule-exploration loop and its report.

One *trial* is a single simulator run of (program, design, schedule
point).  The engine spends its budget alternating two kinds of trial:

* **fenced trials** — every generated program runs under every design
  in the config; any oracle violation (SCV under correct fences,
  deadlock with recovery enabled, livelock, recovery leaving a non-SC
  state) is a finding against the paper's claims;
* **stripped trials** — the same program with its fences deleted runs
  under the baseline design, when it has a store→load site to race on
  (:func:`~repro.verify.generator.store_load_sites`); an SCV here is
  the *positive control*: it proves the explorer reaches racy
  interleavings and the checker sees them.

The first stripped SCV is handed to the shrinker, whose ``ddmin``
minimizes it to a 1-minimal op list still reproducing a violation at
the same schedule point.  Results land in a machine-readable JSON report
(default ``benchmarks/out/verify_report.json``).

Every run of a campaign, the shrinker's included, comes out of one
:class:`~repro.verify.oracles.RunStore`: a design whose run one of the
program's earlier simulations already is
(:func:`~repro.verify.oracles.shares_run`: a design-inert run, or a
WS+/SW+/W+ run that no bounce or promotion set apart) gets that run
relabelled with its design, so every trial still counts and reports
exactly as its own run would, and a run whose warm-up an earlier run
already took restores it instead of simulating it again.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.params import FenceDesign
from repro.verify.generator import (
    LitmusProgram,
    generate_program,
    store_load_sites,
)
from repro.verify.oracles import PAPER_DESIGNS, RunStore, check_invariants
from repro.verify.perturb import SchedulePoint, schedule_points
from repro.verify.shrink import shrink_program

DEFAULT_REPORT_PATH = "benchmarks/out/verify_report.json"

#: schedule points explored per campaign (cycled across programs)
NUM_POINTS = 6
#: property evaluations the shrinker may spend (outside the budget)
SHRINK_BUDGET = 200


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs of one verification campaign."""

    budget: int = 200
    designs: Tuple[FenceDesign, ...] = PAPER_DESIGNS
    seed: int = 12345
    #: restrict generation to one shape (None = seed-determined mix)
    shape: Optional[str] = None
    shrink: bool = True


@dataclass
class VerifyReport:
    """Aggregated campaign outcome (JSON-serializable via to_dict)."""

    config: Dict = field(default_factory=dict)
    runs: int = 0
    programs: int = 0
    #: str(design) -> {"runs", "scvs", "violations", "recoveries"}
    per_design: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: oracle violations on fenced programs (empty = the paper holds)
    violations: List[Dict] = field(default_factory=list)
    #: SCVs found on fence-stripped programs (the positive control)
    scv_findings: List[Dict] = field(default_factory=list)
    #: the first finding, minimized
    shrunk: Optional[Dict] = None
    #: simulator runs made: the trials and shrinker questions no
    #: earlier run of their program answered (``RunStore``) — not in
    #: ``to_dict()``
    simulated_runs: int = 0
    #: simulator runs that restored their warm-up instead of
    #: simulating it (``RunStore``) — not in ``to_dict()``
    warmups_restored: int = 0

    @property
    def fenced_scvs(self) -> int:
        return sum(d["scvs"] for d in self.per_design.values())

    @property
    def stripped_scvs(self) -> int:
        return len(self.scv_findings)

    def to_dict(self) -> Dict:
        return {
            "config": self.config,
            "runs": self.runs,
            "programs": self.programs,
            "per_design": self.per_design,
            "fenced_scvs": self.fenced_scvs,
            "stripped_scvs": self.stripped_scvs,
            "violations": self.violations,
            "scv_findings": self.scv_findings,
            "shrunk": self.shrunk,
        }

    def write_json(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def summary(self) -> str:
        lines = [
            f"verify: {self.runs} runs over {self.programs} programs",
            f"  simulator runs: {self.simulated_runs}",
            f"  warm-ups restored: {self.warmups_restored}",
            f"  fenced runs : {self.fenced_scvs} SCVs, "
            f"{len(self.violations)} invariant violations",
            f"  stripped    : {self.stripped_scvs} SCVs found "
            f"(positive control)",
        ]
        for name, row in sorted(self.per_design.items()):
            lines.append(
                f"  {name:<5s}: {row['runs']} runs, {row['scvs']} SCVs, "
                f"{row['recoveries']} recoveries"
            )
        if self.shrunk is not None:
            lines.append(
                f"  shrunk {self.shrunk['from_ops']} -> "
                f"{self.shrunk['to_ops']} ops: {self.shrunk['name']}"
            )
        for v in self.violations[:5]:
            lines.append(f"  VIOLATION {v['program']} under "
                         f"{v['design']}: {v['violations']}")
        verdict = "FAIL" if self.violations else "OK"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def _finding(run, program: LitmusProgram) -> Dict:
    return {
        "program": program.name,
        "shape": program.shape,
        "gen_seed": program.seed,
        "design": str(run.design),
        "point": {
            "mesh_hop_cycles": run.point.mesh_hop_cycles,
            "write_buffer_entries": run.point.write_buffer_entries,
            "bs_entries": run.point.bs_entries,
            "bounce_retry_cycles": run.point.bounce_retry_cycles,
        },
        "cycle_len": len(run.scv) if run.scv else 0,
        "ops": program.describe(),
        "op_count": program.op_count,
    }


def run_verification(config: VerifyConfig,
                     out_path: Optional[str] = DEFAULT_REPORT_PATH
                     ) -> VerifyReport:
    """Run one campaign; writes the JSON report unless *out_path* is
    None and returns the in-memory :class:`VerifyReport`."""
    report = VerifyReport(config={
        "budget": config.budget,
        "designs": [str(d) for d in config.designs],
        "seed": config.seed,
        "shape": config.shape,
        "shrink": config.shrink,
        "num_points": NUM_POINTS,
    })
    report.per_design = {
        str(d): {"runs": 0, "scvs": 0, "violations": 0, "recoveries": 0}
        for d in config.designs
    }
    points = schedule_points(config.seed, NUM_POINTS)
    baseline = config.designs[0]
    store = RunStore()
    prog_idx = 0
    while report.runs < config.budget:
        program = generate_program(
            config.seed * 7919 + prog_idx, shape=config.shape
        )
        point = points[prog_idx % len(points)]
        report.programs += 1
        prog_idx += 1

        # fenced trials: the paper's invariants must hold everywhere
        for design in config.designs:
            if report.runs >= config.budget:
                break
            run = store.run(program, design, point)
            report.runs += 1
            row = report.per_design[str(design)]
            row["runs"] += 1
            row["recoveries"] += run.recoveries
            if run.scv_found:
                row["scvs"] += 1
            problems = check_invariants(run)
            if problems:
                row["violations"] += 1
                report.violations.append({
                    "program": program.name,
                    "design": str(design),
                    "violations": problems,
                    "ops": program.describe(),
                })

        # stripped trial: hunt the SCV the fences were preventing
        stripped = program.stripped()
        if report.runs < config.budget and store_load_sites(stripped.threads):
            run = store.run(stripped, baseline, point)
            report.runs += 1
            if run.scv_found:
                report.scv_findings.append(_finding(run, stripped))
                if config.shrink and report.shrunk is None:
                    report.shrunk = _shrink_finding(
                        stripped, baseline, point, store)
        store.retain(())
    report.simulated_runs = store.simulated
    report.warmups_restored = store.restored
    if out_path is not None:
        report.write_json(out_path)
    return report


def _shrink_finding(program: LitmusProgram, design: FenceDesign,
                    point: SchedulePoint, store: RunStore) -> Dict:
    def still_fails(candidate: LitmusProgram) -> bool:
        return store.run(candidate, design, point).scv_found

    result = shrink_program(program, still_fails, max_runs=SHRINK_BUDGET)
    small = result.program
    return {
        "name": program.name,
        "design": str(design),
        "from_ops": program.op_count,
        "to_ops": small.op_count,
        "converged": result.converged,
        "shrink_runs": result.runs_used,
        "ops": small.describe(),
    }
