"""Property test: synthesis output is always oracle-acceptable.

For a randomly generated litmus program, whatever the synthesizer
returns must (a) be legal under the design's group taxonomy, (b) pass
a *fresh* oracle over the very adversary points the search used — a
stateful-oracle bug (stale counterexample hints, point-order leakage)
would show up as a returned placement a clean judge rejects — and
(c) form an antichain: no returned minimum may cover another, or the
covering one was never minimal.

A fourth property pins the run table (:class:`repro.synth.search.
RunTable`): an oracle answering out of a shared, already-warm table
gives, for any placement, the verdict of a table-less sweep that calls
``run_program`` once per point.

The fast half keeps the example count small for the tier-1 lane; the
``slow``-marked battery drives the whole engine (report, audit,
double-budget re-verification) over more programs for the nightly
lane.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fences.base import synthesis_profile
from repro.synth import SynthConfig, run_synthesis
from repro.synth.search import (
    PlacementOracle,
    RunTable,
    classify_run,
    synthesize,
)
from repro.synth.sites import Placement, extract_sites
from repro.verify.generator import generate_program
from repro.verify.oracles import PAPER_DESIGNS, run_program
from repro.verify.perturb import adversary_points

import pytest

SEARCH_POINTS = 4


def _synthesize_random(seed: int, design):
    program = generate_program(seed, shape="random")
    stripped = program.stripped()
    sites = extract_sites(program, mode="auto")
    points = tuple(adversary_points(seed, SEARCH_POINTS))
    outcome = synthesize(stripped, sites, design, points)
    return stripped, sites, points, outcome


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16),
       design=st.sampled_from(PAPER_DESIGNS))
def test_synth_returns_oracle_accepted_placements(seed, design):
    stripped, _sites, points, outcome = _synthesize_random(seed, design)
    assert outcome.status == "ok", (
        f"synthesis failed on rand seed {seed} / {design.value}: "
        f"{outcome.status} ({outcome.failure})"
    )
    assert outcome.minima
    profile = synthesis_profile(design)
    fresh = PlacementOracle(stripped, design, points)
    for minimum in outcome.minima:
        assert minimum.legal(profile)
        ce = fresh.check(minimum)
        assert ce is None, (
            f"fresh oracle rejects {minimum.key()} on rand seed "
            f"{seed} / {design.value}: {ce.reason}"
        )
    for a in outcome.minima:
        for b in outcome.minima:
            assert a is b or not a.covers(b), (
                f"{a.key()} covers {b.key()}: not an antichain"
            )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16),
       design=st.sampled_from(PAPER_DESIGNS),
       data=st.data())
def test_table_backed_verdict_equals_a_table_less_sweep(seed, design, data):
    program = generate_program(seed, shape="random")
    stripped = program.stripped()
    sites = extract_sites(program, mode="auto")
    points = tuple(adversary_points(seed, SEARCH_POINTS))
    profile = synthesis_profile(design)
    flavour = st.sampled_from(
        (None,) + tuple(sorted(profile.flavours, key=lambda f: f.value)))
    placements = [
        placement for placement in (
            Placement.of({s: f for s, f in zip(sites, combo)
                          if f is not None})
            for combo in data.draw(st.lists(
                st.tuples(*[flavour] * len(sites)), min_size=2, max_size=4)))
        if placement.legal(profile)
    ]
    # the reference: no table, one run_program call per point
    expected = [
        [classify_run(run_program(placement.apply(stripped, design), design,
                                  point, faults=point.injector()))
         for point in points]
        for placement in placements
    ]
    table = RunTable(design)
    # two oracles over one table, so that later questions are answered
    # by runs an earlier — differently ordered — sweep left behind
    for oracle in (PlacementOracle(stripped, design, points, table=table),
                   PlacementOracle(stripped, design, points, table=table)):
        for placement, reasons in zip(placements, expected):
            ce = oracle.check(placement)
            if ce is None:
                assert reasons == [None] * len(points), placement.key()
            else:
                assert reasons[ce.point_index] == ce.reason, placement.key()
    assert len(table.runs) <= len(placements) * len(points)


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_full_engine_on_random_programs(seed):
    """Nightly battery: the whole report pipeline — search, audit at
    double budget, weakening mutations, cost ranking — holds on
    generator output across every design at once."""
    config = SynthConfig(program=f"random:{seed}", designs=PAPER_DESIGNS,
                         seed=seed, num_points=SEARCH_POINTS)
    report = run_synthesis(config)
    assert report.ok, (
        f"random:{seed}: report not ok: "
        + str({d: e["status"] for d, e in report.designs.items()})
    )
