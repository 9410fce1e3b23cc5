"""Known-answer synthesis results for the textbook litmus kernels.

SB, MP, and IRIW have textbook minimal fence placements per design on
a TSO machine:

* **SB** needs a fence between the store and the load on *both*
  threads.  S+ can only spell that sf+sf; W+/Wee can only spell it
  wf+wf; WS+/SW+ admit exactly the two mixed assignments (WS+ caps at
  one wf per group, SW+ needs an sf alongside two-or-more wfs — either
  way {wf,wf} is illegal and {sf,sf} is non-minimal).
* **MP** needs nothing: TSO never reorders store-store or load-load,
  so the textbook barriers are redundant here and the synthesizer must
  prove the *empty* placement correct.
* **IRIW** needs nothing: the forbidden outcome requires
  non-multi-copy-atomic stores, which a single-memory-image machine
  never produces.
* **False / true sharing** (Figs. 4b/4c) need nothing: two unrelated
  wfs that interfere through one cache line form no dependence cycle,
  so no placement is needed to keep SC ("interference cannot create
  an SCV").

Plus the paper's asymmetry claim (the reason synthesis picks flavours
at all): wherever both flavours are expressible, the marginal cost of
a wf is strictly below the sf at the same site, and the designs whose
fences execute weak (W+/Wee) place a wf at exactly the store-to-load
sites where S+ is forced to pay for an sf.
"""

import pytest

from repro.common.params import FenceDesign
from repro.synth.programs import program_for_spec
from repro.verify.oracles import PAPER_DESIGNS, run_program
from repro.verify.perturb import adversary_points

from tests.synth.util import parse_placement, placement_keys, synth_report

S_PLUS = FenceDesign.S_PLUS
DESIGN_IDS = [d.name for d in PAPER_DESIGNS]

#: design.value -> sorted minima keys for the canonical SB kernel
SB_KNOWN_ANSWERS = {
    "S+": ["t0.i2=sf,t1.i2=sf"],
    "WS+": ["t0.i2=sf,t1.i2=wf", "t0.i2=wf,t1.i2=sf"],
    "SW+": ["t0.i2=sf,t1.i2=wf", "t0.i2=wf,t1.i2=sf"],
    "W+": ["t0.i2=wf,t1.i2=wf"],
    "Wee": ["t0.i2=wf,t1.i2=wf"],
}


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=DESIGN_IDS)
def test_sb_textbook_minima(design):
    report = synth_report("sb")
    entry = report.designs[design.value]
    assert entry["status"] == "ok"
    assert placement_keys(entry) == SB_KNOWN_ANSWERS[design.value]


def test_sb_ranked_table_prefers_the_cheap_thread_wf():
    """Where the design may choose (WS+/SW+), rank 1 puts the wf at
    t0 — the site whose marginal wf is free — and the sf on the other
    thread; the reversed assignment is strictly costlier."""
    report = synth_report("sb")
    for design in ("WS+", "SW+"):
        placements = report.designs[design]["placements"]
        assert placements[0]["placement"] == "t0.i2=wf,t1.i2=sf"
        assert placements[0]["cycles"] < placements[1]["cycles"]


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=DESIGN_IDS)
def test_wf_marginal_cost_strictly_below_sf(design):
    """The asymmetry claim, per site.  Within a design that expresses
    both flavours, wf < sf at every site; for the weak-only designs
    (W+/Wee) the comparison is against S+'s forced sf at the same
    site — the cross-design saving the paper's Figure 8 bars show."""
    report = synth_report("sb")
    probes = report.designs[design.value]["site_probes"]
    splus_probes = report.designs[S_PLUS.value]["site_probes"]
    assert probes, f"{design.value}: no site probes recorded"
    for site, per_site in probes.items():
        sf = per_site.get("sf")
        wf = per_site.get("wf")
        if wf is None:  # S+: sf-only, nothing to compare within-design
            assert design is S_PLUS and sf is not None
            continue
        reference_sf = sf if sf is not None else splus_probes[site]["sf"]
        assert wf < reference_sf, (
            f"{design.value} @ {site}: wf probe {wf} not strictly "
            f"below sf {reference_sf}"
        )


def test_weak_designs_place_wf_where_splus_needs_sf():
    """W+/Wee synthesize a wf at exactly the sites S+ fences with sf."""
    report = synth_report("sb")
    splus_sites = {
        fence["site"]: fence["flavour"]
        for fence in report.designs["S+"]["placements"][0]["fences"]
    }
    assert set(splus_sites.values()) == {"sf"}
    for design in ("W+", "Wee"):
        weak_sites = {
            fence["site"]: fence["flavour"]
            for fence in report.designs[design]["placements"][0]["fences"]
        }
        assert set(weak_sites) == set(splus_sites)
        assert set(weak_sites.values()) == {"wf"}


#: (program, design) cases of the empty-placement answer beside MP:
#: the Fig. 4b/4c interference programs, whose wfs share a line but
#: form no cycle (MP keeps its bare design ids)
EMPTY_PLACEMENT_CASES = [
    pytest.param("mp", design, id=design.name) for design in PAPER_DESIGNS
] + [
    pytest.param(program, design, id=f"{program}-{design.name}")
    for program in ("false-sharing", "true-sharing")
    for design in PAPER_DESIGNS
]


@pytest.mark.parametrize("program,design", EMPTY_PLACEMENT_CASES)
def test_mp_needs_no_fences(program, design):
    report = synth_report(program)
    entry = report.designs[design.value]
    assert entry["status"] == "ok"
    assert placement_keys(entry) == ["-"]
    # the empty placement costs exactly the baseline
    assert entry["placements"][0]["overhead_cycles"] == 0.0


@pytest.mark.slow
@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=DESIGN_IDS)
def test_iriw_needs_no_fences(design):
    report = synth_report("iriw")
    entry = report.designs[design.value]
    assert entry["status"] == "ok"
    assert placement_keys(entry) == ["-"]


def test_sb3_sampled_minima_are_a_known_gap():
    """A known gap, not a known answer.  ``sb3`` is a 3-thread SB ring:
    TSO admits its all-zero outcome whenever any one thread is
    unfenced (its one critical cycle runs through every thread; Alglave
    et al., "Don't sit on the fence"), so an SC placement fences all
    three threads.  Sampled synthesis at 4 search points (8 audit
    points) meets no schedule that refutes a placement with fewer
    fences, so S+ certifies one; the simulator refutes it at a later
    adversary point.  Exact synthesis makes this fail: then turn it
    into sb3's known answer (all three sites fenced)."""
    entry = synth_report("sb3", num_points=4).designs["S+"]
    assert entry["status"] == "ok"
    stripped = program_for_spec("sb3").stripped()
    later = adversary_points(1, 80)

    def refuted(key: str) -> bool:
        program = parse_placement(key).apply(stripped, S_PLUS)
        return any(run_program(program, S_PLUS, point,
                               faults=point.injector()).scv_found
                   for point in later)

    short = [key for key in placement_keys(entry)
             if parse_placement(key).num_fences < 3]
    assert any(refuted(key) for key in short), short
