"""The exploration engine: acceptance campaign, report, budget."""

import hashlib
import json
import os

import pytest

from repro.common.params import FenceDesign
from repro.verify.engine import VerifyConfig, run_verification
from repro.verify.oracles import PAPER_DESIGNS

#: sha256 of the report bytes, one per campaign in :data:`PINNED`;
#: taken when the schedule points stopped drawing a seed for an
#: unjittered point, and the findings stopped carrying one
#: (``PYTHONPATH=src python -m tests.verify.test_engine`` prints it)
PINNED_TABLE = os.path.join(os.path.dirname(__file__), "report_pinned.json")

#: campaign id -> config; ``acceptance`` is the fixture's campaign
PINNED = {
    **{f"seed={seed}": VerifyConfig(budget=250, shrink=False, seed=seed)
       for seed in (1, 7, 12345)},
    "acceptance": VerifyConfig(budget=200),
}


@pytest.fixture(scope="module")
def acceptance_report(tmp_path_factory):
    """The acceptance campaign: ``repro verify --designs all
    --budget 200`` (shared across the assertions below)."""
    out = tmp_path_factory.mktemp("verify") / "report.json"
    report = run_verification(VerifyConfig(budget=200),
                              out_path=str(out))
    return report, out


def test_acceptance_finds_scvs_on_stripped_programs(acceptance_report):
    report, _ = acceptance_report
    assert report.stripped_scvs >= 1


def test_acceptance_no_scv_under_correct_fences(acceptance_report):
    report, _ = acceptance_report
    assert report.fenced_scvs == 0
    assert report.violations == []
    # every design of the paper actually ran
    assert set(report.per_design) == {str(d) for d in PAPER_DESIGNS}
    assert all(row["runs"] > 0 for row in report.per_design.values())


def test_acceptance_shrinks_failure_to_ten_ops(acceptance_report):
    report, _ = acceptance_report
    assert report.shrunk is not None
    assert report.shrunk["converged"]
    assert report.shrunk["to_ops"] <= 10
    assert report.shrunk["to_ops"] <= report.shrunk["from_ops"]


def test_acceptance_exercises_wplus_recovery(acceptance_report):
    report, _ = acceptance_report
    assert report.per_design["W+"]["recoveries"] > 0


def test_report_json_round_trips(acceptance_report):
    report, out = acceptance_report
    data = json.loads(out.read_text())
    assert data["runs"] == report.runs == 200
    assert data["config"]["budget"] == 200
    assert data["stripped_scvs"] == report.stripped_scvs
    assert data["shrunk"]["to_ops"] == report.shrunk["to_ops"]
    # findings carry enough to reproduce: generator seed + point
    finding = data["scv_findings"][0]
    assert {"gen_seed", "point", "ops", "design"} <= set(finding)
    # a verify point is never jittered, so it has no seed to name
    assert "seed" not in finding["point"]


def test_budget_is_respected_exactly():
    report = run_verification(
        VerifyConfig(budget=7, designs=(FenceDesign.S_PLUS,
                                        FenceDesign.W_PLUS)),
        out_path=None,
    )
    assert report.runs == 7


def test_campaigns_are_reproducible():
    cfg = VerifyConfig(budget=30, designs=(FenceDesign.S_PLUS,),
                       shrink=False)
    a = run_verification(cfg, out_path=None)
    b = run_verification(cfg, out_path=None)
    assert a.to_dict() == b.to_dict()


def test_shape_restriction():
    report = run_verification(
        VerifyConfig(budget=12, designs=(FenceDesign.S_PLUS,),
                     shape="mp", shrink=False),
        out_path=None,
    )
    # mp is TSO-safe: no SCVs fenced or stripped, nothing to shrink
    assert report.fenced_scvs == 0
    assert report.stripped_scvs == 0
    assert report.shrunk is None


def test_stripped_random_programs_race():
    """The stripped trial follows the program, not its shape: a random
    program with a store→load site races once its fences are gone, and
    the finding shrinks like any other."""
    report = run_verification(
        VerifyConfig(budget=60, seed=12345, shape="random"), out_path=None)
    assert report.fenced_scvs == 0 and report.violations == []
    assert report.stripped_scvs >= 1
    assert {f["shape"] for f in report.scv_findings} == {"random"}
    assert report.shrunk["converged"]
    assert report.shrunk["to_ops"] <= report.shrunk["from_ops"]


def _digest(report) -> str:
    blob = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("case", PINNED)
def test_reports_equal_the_pinned_bytes(case, acceptance_report):
    """Sharing a design-inert run between designs, or any other
    change that claims to keep verdicts, moves no report byte."""
    with open(PINNED_TABLE) as fh:
        pinned = json.load(fh)
    if case == "acceptance":
        report = acceptance_report[0]
    else:
        report = run_verification(PINNED[case], out_path=None)
    assert _digest(report) == pinned[case]


if __name__ == "__main__":
    print(json.dumps(
        {case: _digest(run_verification(config, out_path=None))
         for case, config in PINNED.items()},
        indent=2))
