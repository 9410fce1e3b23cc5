"""A chaos case's decision map replays the case.

Hash mode records every fault it fires under the message it hits; map
mode fires exactly a given map.  So the map an unrestricted case fires
must reproduce that case's row byte for byte, and a shrunk map of the
illegal scenario must still break the machine.
"""

import pytest

from repro.common.params import FenceDesign
from repro.faults import LEGAL_SCENARIOS, make_plan
from repro.faults.chaos import _execute, run_chaos_case, shrink_failing_case
from repro.faults.injector import from_entries
from repro.verify.oracles import PAPER_DESIGNS

SEEDS = (1, 2, 3)


def _row(case):
    row = case.to_dict()
    del row["shrunk"], row["shrink_runs"]
    return row


@pytest.mark.parametrize("scenario", LEGAL_SCENARIOS)
def test_the_recorded_map_reproduces_the_case(scenario):
    fired = 0
    for design in PAPER_DESIGNS:
        for seed in SEEDS:
            case = run_chaos_case(scenario, design, seed)
            _run, injector = _execute(make_plan(scenario, seed), design,
                                      seed, sanitize=case.sanitize)
            replay = run_chaos_case(scenario, design, seed,
                                    decisions=injector.decisions)
            assert _row(replay) == _row(case), (design.value, seed)
            fired += len(injector.decisions)
    # the timeout scenarios fire no decision; every other one must
    assert fired or scenario.startswith("timeout_")


def test_a_shrunk_illegal_map_replays_to_a_failure():
    shrunk = 0
    for design in PAPER_DESIGNS:
        for seed in SEEDS:
            case = run_chaos_case("illegal_drop", design, seed)
            if not case.failed:
                continue
            case = shrink_failing_case(case)
            replay = run_chaos_case("illegal_drop", FenceDesign(case.design),
                                    seed, sanitize=case.sanitize,
                                    decisions=from_entries(case.shrunk))
            assert replay.failed, (design.value, seed, case.shrunk)
            shrunk += 1
    assert shrunk >= len(PAPER_DESIGNS)
