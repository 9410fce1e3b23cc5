"""A process that runs case after case is not charged for earlier cases.

``ru_maxrss`` is the *process* high-water mark: the interpreter plus
whatever is alive at its largest moment so far, and it never falls.
While finished machines waited for a gen-2 collection, a process that
ran case after case (``run_matrix``, a farm worker) carried its
predecessors in that mark: over these 16 runs it climbed 8 MiB,
although no single run needs 2 MiB.  ``run_workload`` disposes its
machine now, so the mark stays at interpreter + one live machine.

A fresh interpreter, because pytest's own high-water mark is far above
anything these runs reach and would mask the growth.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

pytest.importorskip("resource")

_CHILD = r"""
import json, resource, sys
# what bench/child.py imports before its body: the footprint a sweep has
import repro.farm.clients, repro.faults, repro.obs.analyze, repro.obs.export
import repro.sanitizer, repro.synth, repro.verify
from repro.common.params import FenceDesign
from repro.workloads.base import load_all_workloads, run_workload


def maxrss_mib():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # KiB on Linux, bytes on Darwin
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" \
        else peak / 1024.0


load_all_workloads()
start = maxrss_mib()
for _ in range(2):
    # the sweep's two largest families, at its scales and core count
    for name, scale in (("Tree", 0.25), ("vacation", 0.1)):
        for design in (FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
                       FenceDesign.W_PLUS, FenceDesign.WEE):
            run_workload(name, design, num_cores=8, scale=scale)
print(json.dumps({"start": start, "end": maxrss_mib()}))
"""


def test_back_to_back_runs_leave_the_rss_high_water_mark_flat():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, check=True,
        capture_output=True, text=True,
    )
    report = json.loads(out.stdout)
    assert report["end"] - report["start"] < 4.0, report
