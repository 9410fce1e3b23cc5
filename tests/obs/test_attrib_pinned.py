"""Online attribution results, pinned against a table taken at an
earlier commit.

``test_attrib.py`` checks the online tree against the offline replay of
the *same* run, and against the coarse buckets of the same run — both
references come from the code under test.  This module compares what an
attributed run reports (machine node, design-event counters, hot lines,
write-buffer peaks) with ``attrib_pinned.json``, a table generated once
(``python -m tests.obs.test_attrib_pinned`` prints it) at the commit
*before* attribution became a listener on the tracer's hooks — when
every stall site still called a private ``attrib`` hook.  Regenerate it
only for an intended accounting change, and say so in the commit.

The matrix: fib / Counter / TreeOverwrite / List under the five paper
designs plus l-mf and C-fence (4 cores, scale 0.2, seed 12345), and the
Fig. 3a all-wf collision that W+ recovers from — it reaches the
counters that had no literal tracer twin (S+'s ``sf_flavours``, the
C-fence ``cfence`` leaf), W+'s recovery subtree, and the ones that ride
a tracer hook of another name (``wee_demotions``, ``wee_conversions``,
``order_promotions``, ``cond_order_promotions``).
"""

import json
import os

import pytest

from repro.common.params import FenceDesign
from repro.obs import CycleAttribution, Observability
from repro.obs.attrib import flatten_node
from repro.sanitizer.core import sanitize_mode
from repro.workloads.base import load_all_workloads, run_workload
from tests.support import reset_global_id_streams
from tests.unit.test_watchdog import _all_wf_deadlock_machine

TABLE = os.path.join(os.path.dirname(__file__), "attrib_pinned.json")

WORKLOADS = ("fib", "Counter", "TreeOverwrite", "List")
CASES = tuple(f"{name}:{design.value}" for name in WORKLOADS
              for design in FenceDesign) + ("recovery",)
#: what the matrix as a whole must reach for the table to pin anything
REACHED = ("sf_flavours", "wee_demotions", "wee_conversions",
           "order_promotions", "cond_order_promotions")


def _report(case):
    load_all_workloads()
    reset_global_id_streams()
    if case == "recovery":
        machine = _all_wf_deadlock_machine(recovery=True)
        attrib = CycleAttribution()
        machine.attach_attrib(attrib)
        assert machine.run().completed
    else:
        name, _, design = case.partition(":")
        obs = Observability(trace=False, attrib=True)
        run_workload(name, FenceDesign(design), num_cores=4, scale=0.2,
                     seed=12345, obs=obs, sanitize=sanitize_mode())
        attrib = obs.attrib
    return {
        "machine": flatten_node(attrib.tree()["machine"]),
        "events": attrib.design_events(),
        "top_lines": attrib.top_lines(),
        "wb_peak": list(attrib.wb_peak),
    }


@pytest.fixture(scope="module")
def pinned():
    with open(TABLE) as fh:
        return json.load(fh)


def test_table_covers_the_matrix_and_the_twinless_counters(pinned):
    assert sorted(pinned) == sorted(CASES)
    seen = {key for row in pinned.values() for key in row["events"]}
    assert seen >= set(REACHED)
    assert pinned["Counter:C-fence"]["machine"]["fence_stall.cfence"] > 0
    assert pinned["recovery"]["machine"]["fence_stall.recovery.bounce"] > 0


@pytest.mark.parametrize("case", CASES)
def test_attributed_run_matches_the_pinned_report(case, pinned):
    # through JSON: the table holds what a report file would hold
    assert json.loads(json.dumps(_report(case))) == pinned[case]


if __name__ == "__main__":
    print(json.dumps({case: _report(case) for case in CASES},
                     indent=1, sort_keys=True))
