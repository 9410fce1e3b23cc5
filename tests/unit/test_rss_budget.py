"""The RSS leg of ``RunBudget`` charges a run for itself only.

``_rss_mb`` reads the *process* high-water mark, so the leg bounds the
interpreter plus whatever is alive when it looks.  While finished
machines waited for a gen-2 collection, a process that ran case after
case (``run_matrix``, a farm worker) carried its predecessors in that
mark: a budget 5 MiB above the start-up footprint degraded 12 of these
16 runs although no single one needs 2 MiB, and the process ended
8 MiB up.  ``run_workload`` disposes its machine now, so the mark stays
at interpreter + one live machine.

A fresh interpreter, because pytest's own high-water mark is far above
anything these runs reach and would mask the growth.
"""

import json
import os
import subprocess
import sys

import repro

_CHILD = r"""
import json
# what bench/child.py imports before its body: the footprint a sweep has
import repro.farm.clients, repro.faults, repro.obs.analyze, repro.obs.export
import repro.sanitizer, repro.synth, repro.verify
from repro.common.params import FenceDesign
from repro.sim.governor import RunBudget, _rss_mb
from repro.workloads.base import load_all_workloads, run_workload

load_all_workloads()
start = _rss_mb()
budget = RunBudget(max_rss_mb=start + 5)
degraded = []
for _ in range(2):
    # the sweep's two largest families, at its scales and core count
    for name, scale in (("Tree", 0.25), ("vacation", 0.1)):
        for design in (FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
                       FenceDesign.W_PLUS, FenceDesign.WEE):
            run = run_workload(name, design, num_cores=8, scale=scale,
                               sanitize="off", budget=budget)
            if run.result.degraded:
                degraded.append(
                    [name, design.value, run.result.degraded_reason])
print(json.dumps({"start": start, "end": _rss_mb(), "degraded": degraded}))
"""


def test_rss_budget_is_not_charged_for_earlier_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, check=True,
        capture_output=True, text=True,
    )
    report = json.loads(out.stdout)
    assert report["degraded"] == []
    assert report["end"] - report["start"] < 4.0, report
