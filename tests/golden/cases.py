"""Pinned runs for the golden-trace determinism tests.

One golden file per fence design; each file holds the **full**
``MachineStats.to_dict()`` of three pinned runs at seed 12345:

* ``fib``      — a CilkApps workload that runs to completion,
* ``Counter``  — a ustm workload cut at its cycle budget,
* ``litmus_sb``— the store-buffering litmus (``run_program`` on the
  named ``sb`` program) with an all-critical fence group (exercises
  bounces, and W+ recovery/replay).

The goldens were generated from the pre-rewrite event kernel; they are
the safety net proving a kernel rewrite changed timing of *Python*,
not timing of the *simulated machine*.  Regenerate (only for a
deliberate simulated-behaviour change, with justification in the PR)
via ``PYTHONPATH=src python tests/golden/make_goldens.py``.
"""

from __future__ import annotations

import os

from repro.common.params import FenceDesign, FenceRole
from repro.sanitizer.core import sanitize_mode
from repro.synth.programs import sb
from repro.verify.oracles import run_program
from repro.verify.perturb import SchedulePoint
from repro.workloads.base import load_all_workloads, run_workload

SEED = 12345
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: the paper's five designs (Table 1), each with a golden file
GOLDEN_DESIGNS = (
    FenceDesign.S_PLUS,
    FenceDesign.WS_PLUS,
    FenceDesign.SW_PLUS,
    FenceDesign.W_PLUS,
    FenceDesign.WEE,
)


def golden_path(design: FenceDesign) -> str:
    return os.path.join(DATA_DIR, f"{design.name.lower()}.json")


def golden_run(design: FenceDesign) -> dict:
    """Execute the pinned runs for *design*; returns the golden dict."""
    load_all_workloads()
    out = {}
    for workload in ("fib", "Counter"):
        run = run_workload(workload, design, num_cores=4, scale=0.25,
                           seed=SEED, sanitize=sanitize_mode())
        out[workload] = {
            "cycles": run.cycles,
            "completed": run.result.completed,
            "stats": run.stats.to_dict(),
        }
    # SW+ supports any *asymmetric* group (one side sf); an all-wf SB
    # group genuinely deadlocks under it (the situation W+ recovers
    # from), so its golden litmus uses the supported shape.
    roles = (
        (FenceRole.CRITICAL, FenceRole.STANDARD)
        if design is FenceDesign.SW_PLUS
        else (FenceRole.CRITICAL, FenceRole.CRITICAL)
    )
    lit = run_program(sb(roles), design, SchedulePoint(seed=SEED),
                      sanitize=sanitize_mode())
    out["litmus_sb"] = {
        "cycles": lit.cycles,
        "completed": lit.completed,
        # each thread performs one load: its register is "r"
        "observed": {
            f"P{tid}.r": value
            for (tid, _idx), value in sorted(lit.observed.items())
        },
        "stats": lit.stats.to_dict(),
    }
    return out
