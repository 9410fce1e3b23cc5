"""Perf-regression harness: pinned matrices, snapshots, comparison.

The harness exists to seed and maintain the repo's performance
trajectory: every snapshot records how fast the *simulator* (the
Python process, not the simulated machine) runs a pinned matrix of
workloads x fence designs, so any PR can be checked against the
previous snapshot.

Design points:

* Cases are pinned (workload, design, cores, scale, seed) tuples; the
  simulated work is deterministic, so wall-clock differences are
  simulator-code differences plus host noise.  The median over
  ``reps`` repetitions suppresses most of the noise.
* Timing runs in-process and single-threaded with the GC disabled
  around each run — process-pool parallelism would measure scheduler
  behaviour, not the simulator.
* Snapshots are plain JSON with host metadata, so they are diffable
  and machine-comparable across commits (``BENCH_perf.json``).
* Comparison is per-case: a regression is ``new_median > threshold *
  old_median`` for any case whose pinned key matches.  The comparator
  never fails on matrix changes — unmatched cases are reported, not
  errors — so the matrix can evolve.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.params import FenceDesign, MachineParams
from repro.sim.machine import Machine
from repro.workloads.base import REGISTRY, load_all_workloads

SCHEMA_VERSION = 2
DEFAULT_SNAPSHOT_PATH = os.path.join("benchmarks", "perf", "BENCH_perf.json")
#: cycle-attribution companion snapshot (same matrix, simulated-cycle
#: decomposition instead of wall-clock — catches *simulated* behaviour
#: drift the wall-clock harness is blind to)
DEFAULT_ATTRIB_PATH = os.path.join("benchmarks", "perf", "BENCH_attrib.json")
#: fail when a case gets this much slower than the baseline (median).
DEFAULT_THRESHOLD = 1.25


@dataclass(frozen=True)
class PerfCase:
    """One pinned timing target."""

    workload: str
    design: FenceDesign
    cores: int = 8
    scale: float = 0.5
    seed: int = 12345

    @property
    def key(self) -> str:
        """Stable identity used to match cases across snapshots."""
        return (
            f"{self.workload}:{self.design.value}:c{self.cores}"
            f":s{self.scale:g}:r{self.seed}"
        )


#: The paper's headline bench configuration (Figs. 8/9: 8 cores,
#: CilkApps execution time + ustm throughput) under the four evaluated
#: designs — the matrix the >=2x kernel-speedup target is judged on.
_FIG89_DESIGNS = (
    FenceDesign.S_PLUS,
    FenceDesign.WS_PLUS,
    FenceDesign.W_PLUS,
    FenceDesign.WEE,
)

PROFILES: Dict[str, Sequence[PerfCase]] = {
    "fig89": tuple(
        PerfCase(workload=w, design=d)
        for w in ("fib", "matmul", "Counter", "Tree")
        for d in _FIG89_DESIGNS
    ),
    # CI smoke matrix: small, fast, still crosses the cilk/ustm split
    # and the sf-only vs recovery-capable design split.
    "tiny": tuple(
        PerfCase(workload=w, design=d, cores=4, scale=0.2)
        for w in ("fib", "Counter")
        for d in (FenceDesign.S_PLUS, FenceDesign.W_PLUS)
    ),
}


def _git_rev() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def host_metadata() -> Dict[str, object]:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_rev": _git_rev(),
    }


def _time_case(case: PerfCase, reps: int) -> Dict[str, object]:
    """Run one case ``reps`` times; returns its snapshot entry."""
    cls = REGISTRY[case.workload]
    wall: List[float] = []
    cycles = 0
    events = 0
    for _ in range(reps):
        workload = cls(scale=case.scale)
        params = MachineParams().with_cores(case.cores).with_design(case.design)
        machine = Machine(params, seed=case.seed)
        workload.setup(machine)
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = machine.run(max_cycles=workload.cycle_budget)
            wall.append(time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
        cycles = result.cycles
        events = machine.queue.executed
    median = statistics.median(wall)
    return {
        "key": case.key,
        "workload": case.workload,
        "design": case.design.value,
        "cores": case.cores,
        "scale": case.scale,
        "seed": case.seed,
        "reps": reps,
        "wall_s": [round(w, 6) for w in wall],
        "median_s": round(median, 6),
        "sim_cycles": cycles,
        "events_executed": events,
        "events_per_s": round(events / median, 1) if median else 0.0,
    }


def run_profile(
    profile: str = "fig89",
    reps: int = 3,
    progress=None,
    farm_db: Optional[str] = None,
    farm_workers: Optional[int] = None,
) -> Dict[str, object]:
    """Time every case of *profile*; returns the snapshot dict.

    With *farm_db* the matrix is timed as a campaign on the experiment
    farm: identical cases already timed at this code revision are
    served from the content-addressed cache, so only new or changed
    cases cost wall time.
    """
    if profile not in PROFILES:
        raise ValueError(
            f"unknown perf profile {profile!r}; choose from "
            f"{', '.join(sorted(PROFILES))}"
        )
    load_all_workloads()
    pinned = PROFILES[profile]
    if farm_db:
        from repro.farm.clients import farm_perf_cases

        cases = farm_perf_cases(pinned, reps=reps, db=farm_db,
                                workers=farm_workers)
        if progress is not None:
            for entry in cases:
                progress(entry)
    else:
        cases = []
        for case in pinned:
            entry = _time_case(case, reps)
            cases.append(entry)
            if progress is not None:
                progress(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "profile": profile,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": host_metadata(),
        "cases": cases,
        "total_median_s": round(sum(c["median_s"] for c in cases), 6),
    }


def run_attrib_profile(
    profile: str = "fig89",
    progress=None,
) -> Dict[str, object]:
    """Attribution snapshot over *profile*'s matrix (one attributed run
    per case, deterministic — no reps needed).

    Each entry is the machine-level attribution tree flattened to
    component -> core-cycles, plus the conservation verdict.  The
    snapshot is diffable across commits like ``BENCH_perf.json``, but
    tracks *simulated* cycles: a change that shifts cycles between
    ``sf.drain`` and ``sf.bounce`` shows up here even when wall-clock
    is unchanged.
    """
    from repro.obs import Observability
    from repro.obs.attrib import conservation_errors, flatten_node
    from repro.workloads.base import run_workload

    if profile not in PROFILES:
        raise ValueError(
            f"unknown perf profile {profile!r}; choose from "
            f"{', '.join(sorted(PROFILES))}"
        )
    load_all_workloads()
    cases = []
    for case in PROFILES[profile]:
        obs = Observability(trace=False, attrib=True)
        run = run_workload(
            case.workload, case.design, num_cores=case.cores,
            scale=case.scale, seed=case.seed, obs=obs,
        )
        tree = obs.attrib.tree(label=case.key)
        errors = conservation_errors(tree)
        entry = {
            "key": case.key,
            "cycles": run.cycles,
            "machine": flatten_node(tree["machine"]),
            "events": obs.attrib.design_events(),
            "conservation_ok": not errors,
        }
        if errors:
            entry["conservation_errors"] = errors
        cases.append(entry)
        if progress is not None:
            progress(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "profile": profile,
        "kind": "attrib",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": host_metadata(),
        "cases": cases,
    }


# ---------------------------------------------------------------------------
# snapshot I/O and comparison
# ---------------------------------------------------------------------------


def load_snapshot(path: str) -> Optional[Dict[str, object]]:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def write_snapshot(snapshot: Dict[str, object], path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=False)
        fh.write("\n")


def compare_snapshots(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, object]:
    """Per-case comparison of *current* against *baseline*.

    ``speedup`` is baseline/current (>1 means the new code is faster).
    A case regresses when ``current > threshold * baseline``.
    """
    old_by_key = {c["key"]: c for c in baseline.get("cases", [])}
    matched, regressions, unmatched = [], [], []
    for case in current.get("cases", []):
        old = old_by_key.get(case["key"])
        if old is None:
            unmatched.append(case["key"])
            continue
        old_m, new_m = old["median_s"], case["median_s"]
        speedup = old_m / new_m if new_m else float("inf")
        row = {
            "key": case["key"],
            "baseline_median_s": old_m,
            "median_s": new_m,
            "speedup": round(speedup, 3),
            "regressed": bool(new_m > threshold * old_m),
        }
        matched.append(row)
        if row["regressed"]:
            regressions.append(row)
    return {
        "baseline_created_at": baseline.get("created_at"),
        "baseline_git_rev": (baseline.get("host") or {}).get("git_rev"),
        "threshold": threshold,
        "cases": matched,
        "unmatched_keys": unmatched,
        "median_speedup": round(
            statistics.median([r["speedup"] for r in matched]), 3
        ) if matched else None,
        "regressions": [r["key"] for r in regressions],
        "ok": not regressions,
    }


def render_comparison(comparison: Dict[str, object]) -> str:
    lines = [
        f"perf comparison vs baseline "
        f"{comparison.get('baseline_git_rev') or '?'} "
        f"({comparison.get('baseline_created_at') or 'unknown time'}), "
        f"threshold {comparison['threshold']:g}x:",
    ]
    for row in comparison["cases"]:
        flag = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"  {row['key']:32s} {row['baseline_median_s']:.3f}s -> "
            f"{row['median_s']:.3f}s  ({row['speedup']:.2f}x)  {flag}"
        )
    for key in comparison["unmatched_keys"]:
        lines.append(f"  {key:32s} (new case, no baseline)")
    if comparison["median_speedup"] is not None:
        lines.append(f"  median speedup: {comparison['median_speedup']:.2f}x")
    lines.append(
        "  verdict: " + ("OK" if comparison["ok"]
                         else f"{len(comparison['regressions'])} regression(s)")
    )
    return "\n".join(lines)
