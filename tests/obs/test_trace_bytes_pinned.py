"""Exported trace bytes, pinned against digests taken at an earlier commit.

``test_export.py::test_write_jsonl_bytes_equal_per_record_dumps`` builds
its reference from ``tracer.events`` — from the code under test — so a
change that swapped an args key order in recorder *and* view would pass
it.  This module compares the sha256 of the JSONL stream and of the
Chrome JSON of a fixed run matrix against ``trace_bytes_pinned.json``,
a table generated once (``python -m tests.obs.test_trace_bytes_pinned``
prints it) at the commit *before* the tracer stored flat records.
Regenerate it only for an intended format change, and say so in the
commit.  The fib, ``cutoff`` and ``dir_nack`` rows were re-pinned when
the interval-metrics timeline was removed: each is the digest of the
earlier export with its ``"type":"metrics"`` lines (JSONL) or its
``tid`` 901 events (Chrome) dropped, every other byte kept.

The matrix: TreeOverwrite / Counter / fib under the five paper designs
plus l-mf and C-fence (4 cores, tiny scale, fixed seeds), and four runs that reach the irregular record
shapes — a ``max_events`` cap (``dropped``), a cycle-budget cutoff
(``incomplete`` spans including an open ``dir_txn``), a W+ run with
recoveries (``outcome: recovery`` unwinds, ``extra``), and a
``dir_nack``-faulted run (``fault_*`` instants with free-form args).
"""

import hashlib
import json
import os

import pytest

from repro.common.params import FenceDesign, MachineParams
from repro.faults import FaultInjector, make_plan
from repro.obs import Observability
from repro.obs.export import (
    run_provenance,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.machine import Machine
from repro.workloads.base import REGISTRY, load_all_workloads, run_workload
from tests.support import reset_global_id_streams

TABLE = os.path.join(os.path.dirname(__file__), "trace_bytes_pinned.json")

#: (workload, scale, seed)
MATRIX = (
    ("TreeOverwrite", 0.06, 7),
    ("Counter", 0.1, 11),
    ("fib", 0.1, 7),
)
SPECIAL = ("capped", "cutoff", "recovery", "dir_nack")
CASES = tuple(f"{name}:{design.value}" for name, _, _ in MATRIX
              for design in FenceDesign) + SPECIAL


def _hand_built(design, seed, max_cycles=None, faults=None):
    """fib on a hand-built machine (what ``run_workload`` does not
    expose: a cycle cutoff, a fault plan)."""
    workload = REGISTRY["fib"](scale=0.2)
    params = MachineParams().with_cores(4).with_design(design)
    machine = Machine(params, seed=seed)
    obs = Observability().attach(machine)
    if faults is not None:
        machine.attach_faults(FaultInjector(make_plan(faults, seed)))
    workload.setup(machine)
    machine.run(max_cycles=max_cycles or workload.cycle_budget)
    return obs, {"workload": "fib", "design": design.value, "seed": seed}


def _trace(case):
    """Run *case*; returns ``(obs, provenance, what must be in it)``."""
    load_all_workloads()
    reset_global_id_streams()  # txn/store ids land in the args
    if case == "cutoff":
        obs, prov = _hand_built(FenceDesign.W_PLUS, 12345, max_cycles=800)
        cut = [ev for ev in obs.tracer.events
               if ev.args and ev.args.get("incomplete")]
        return obs, prov, {ev.name for ev in cut} >= {"dir_txn", "wf"}
    if case == "dir_nack":
        obs, prov = _hand_built(FenceDesign.WS_PLUS, 3, faults="dir_nack")
        return obs, prov, bool(obs.tracer.instants(cat="fault"))
    if case == "capped":
        obs = Observability(max_events=500)
        run = run_workload("Counter", FenceDesign.W_PLUS, num_cores=4,
                           scale=0.1, seed=5, obs=obs, sanitize="off")
        return obs, run_provenance(run), obs.tracer.dropped > 0
    if case == "recovery":
        obs = Observability()
        run = run_workload("fib", FenceDesign.W_PLUS, num_cores=4,
                           scale=0.2, seed=12345, obs=obs,
                           sanitize="off")
        unwound = [ev for ev in obs.tracer.spans("wf")
                   if ev.args.get("outcome") == "recovery"]
        return obs, run_provenance(run), bool(
            unwound and run.stats.wplus_recoveries
            and all("extra" in ev.args
                    for ev in obs.tracer.spans("recovery")))
    name, _, design = case.partition(":")
    scale, seed = next(row[1:] for row in MATRIX if row[0] == name)
    obs = Observability()
    run = run_workload(name, FenceDesign(design), num_cores=4, scale=scale,
                       seed=seed, obs=obs, sanitize="off")
    return obs, run_provenance(run), obs.tracer.count("dir_txn") > 50


def _digests(case, tmp):
    obs, provenance, reached = _trace(case)
    assert reached, f"{case}: the run no longer reaches what it pins"
    out = {}
    for fmt, write in (("jsonl", write_jsonl), ("chrome", write_chrome_trace)):
        path = os.path.join(tmp, f"trace.{fmt}")
        written = write(path, obs.tracer, label=case,
                        provenance=provenance)
        if fmt == "chrome":
            assert validate_chrome_trace(written) == []
        with open(path, "rb") as fh:
            out[fmt] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pinned():
    with open(TABLE) as fh:
        return json.load(fh)


def test_table_covers_exactly_the_matrix(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_exported_bytes_match_the_pinned_digests(case, pinned, tmp_path):
    assert _digests(case, str(tmp_path)) == pinned[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps({case: _digests(case, scratch) for case in CASES},
                         indent=1, sort_keys=True))
