"""Mutation-style soundness of synthesized placements.

Two claims, checked independently of the engine's own audit (the
battery reconstructs each placement from the report and judges it with
a *fresh* oracle):

* **soundness** — every synthesized placement still passes the SC
  oracle at 2x the search's schedule budget (the adversary stream is
  prefix-stable, so the double-budget point set strictly extends the
  one the search saw);
* **non-vacuous minimality** — every one-step weakening of a placement
  (drop one fence, or demote one sf to wf) that the design can express
  fails the oracle on at least one schedule.  If a weakening passed,
  the "minimal" placement would be carrying a redundant fence.
"""

import pytest

from repro.common.params import FenceDesign
from repro.synth.programs import program_for_spec
from repro.synth.search import PlacementOracle, RunTable
from repro.synth.sites import Placement
from repro.verify.oracles import PAPER_DESIGNS
from repro.verify.perturb import adversary_points

from tests.synth.util import parse_placement, synth_report

SEED = 1
SEARCH_POINTS = 12
AUDIT_FACTOR = 2

DESIGN_IDS = [d.name for d in PAPER_DESIGNS]


def _double_budget_oracle(design: FenceDesign) -> PlacementOracle:
    stripped = program_for_spec("sb").stripped()
    points = adversary_points(SEED, SEARCH_POINTS * AUDIT_FACTOR)
    return PlacementOracle(stripped, RunTable(design, "off", {}), points)


def _entry(design: FenceDesign) -> dict:
    report = synth_report("sb", seed=SEED, num_points=SEARCH_POINTS)
    entry = report.designs[design.value]
    assert entry["status"] == "ok" and entry["placements"], (
        f"{design.value}: synthesis produced no placement to audit"
    )
    return entry


def test_adversary_points_are_prefix_stable():
    """The soundness guarantee leans on this: the audit's point set
    must *extend* the search's, never resample it."""
    short = adversary_points(SEED, SEARCH_POINTS)
    long = adversary_points(SEED, SEARCH_POINTS * AUDIT_FACTOR)
    assert long[:len(short)] == short
    assert len(long) == SEARCH_POINTS * AUDIT_FACTOR
    # the extension actually adds jitter-armed adversaries, not copies
    assert any(p.jittered for p in long[len(short):])


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=DESIGN_IDS)
def test_placements_pass_at_double_budget(design):
    entry = _entry(design)
    oracle = _double_budget_oracle(design)
    for placement_entry in entry["placements"]:
        placement = parse_placement(placement_entry["placement"])
        ce = oracle.check(placement)
        assert ce is None, (
            f"{design.value}: synthesized placement "
            f"{placement.key()} fails at double budget on point "
            f"{ce.point_index}: {ce.reason}"
        )


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=DESIGN_IDS)
def test_every_legal_weakening_fails(design):
    from repro.fences.base import synthesis_profile

    profile = synthesis_profile(design)
    entry = _entry(design)
    oracle = _double_budget_oracle(design)
    for placement_entry in entry["placements"]:
        placement = parse_placement(placement_entry["placement"])
        weakenings = list(placement.weakenings())
        assert weakenings, (
            f"{design.value}: {placement.key()} has no weakenings — "
            "an empty placement should never reach the minima list "
            "for a racy program"
        )
        checked = 0
        for weaker in weakenings:
            if not weaker.legal(profile):
                # the design cannot execute this weakening (wf under
                # S+, an all-wf group under SW+): it was never a real
                # alternative, so it cannot witness non-minimality
                continue
            ce = oracle.check(weaker)
            checked += 1
            assert ce is not None, (
                f"{design.value}: weakening {weaker.key()} of "
                f"{placement.key()} still passes the oracle — the "
                "synthesized placement is not minimal"
            )
        assert checked, (
            f"{design.value}: no weakening of {placement.key()} was "
            "even legal; minimality would be vacuous"
        )


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=DESIGN_IDS)
def test_engine_audit_agrees_with_battery(design):
    """The report's built-in audit block reaches the same verdicts the
    battery derives from scratch (same seed, same factor)."""
    report = synth_report("sb", seed=SEED, num_points=SEARCH_POINTS)
    entry = report.designs[design.value]
    for placement_entry in entry["placements"]:
        audit = placement_entry["audit"]
        assert audit["passed"] and audit["minimal"]
        assert audit["points"] == SEARCH_POINTS * AUDIT_FACTOR
        for weakening in audit["weakenings"]:
            if weakening["expressible"]:
                assert weakening["failed"] is True
                assert weakening["counterexample"] is not None
            else:
                assert weakening["failed"] is None


def test_stripped_sb_actually_races():
    """Sanity anchor for the whole battery: with no fences at all, the
    oracle must find an SCV — otherwise every test above is hollow."""
    oracle = _double_budget_oracle(FenceDesign.S_PLUS)
    ce = oracle.check(Placement.empty())
    assert ce is not None and ce.reason.startswith("scv")
