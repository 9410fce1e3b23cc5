"""Synthesis runs: each (program, design, point) is simulated once.

A run is a pure function of (program, design, point, sanitizer mode),
so one ``run_synthesis`` call asks one
:class:`repro.verify.oracles.RunStore` for every run of its search
rounds, its audits and its cost sweeps.  The store's table
(``RunStore.runs``) answers a question asked before, and a question no
design asked before takes a stored run another design made when
:func:`repro.verify.oracles.shares_run` accepts it (a design-inert run,
or a WS+/SW+/W+ run that no bounce or promotion set apart; tests/verify/
test_bounce_class.py).  Four things are pinned here:

* inside one ``run_synthesis`` call nothing is simulated twice — a
  run another design can take not under that design — and nothing
  survives the call: a second identical call simulates as many runs as the
  first (``test_determinism`` keeps comparing two real computations);
* the counts that sharing buys, and that a sanitizer turns it off
  (its checks are per design, outside ``shares_run``'s scope);
* the store changes no verdict, count or report byte: sha256 of
  ``report.to_json()`` for a matrix of configurations against
  ``run_table_pinned.json``, generated at the commit before synthesis
  kept its runs and again when the schedule points stopped drawing a
  seed for an unjittered point (``PYTHONPATH=src python -m
  tests.synth.test_run_table`` prints it).  Regenerate it only for an
  intended report change, and say so in the commit;
* two stores share nothing, while one store asked twice simulates
  once: an oracle's verdicts count every question, its store's table
  only the misses; the designs of one store share the design-inert and
  unbounced runs.

``REPRO_SANITIZE`` picks the sanitizer mode, as in the rest of the
battery (the CI ``synth-smoke`` job runs this module under ``strict``):
the store carries one mode, the sanitizer is zero-perturbation, so
the digests — taken with the ``config.sanitize`` field normalised to
``off`` — must not move.
"""

import hashlib
import json
import os

import pytest

import repro.synth.search as search
import repro.verify.oracles as oracles
from repro.common.errors import ConfigError
from repro.common.params import FenceDesign
from repro.synth import SynthConfig, cost, run_synthesis
from repro.synth.programs import program_for_spec
from repro.synth.sites import extract_sites
from repro.verify.oracles import PAPER_DESIGNS, RunStore, shares_run
from repro.verify.perturb import adversary_points

from tests.synth.util import parse_placement

TABLE = os.path.join(os.path.dirname(__file__), "run_table_pinned.json")
SANITIZE = os.environ.get("REPRO_SANITIZE", "off")

#: case id -> SynthConfig overrides; the last one starves the verdict
#: budget so that designs end exhausted in the search (SW+, WS+),
#: exhausted in the audit (S+, Wee) and ok (W+) within one report
CASES = {
    f"{program}@{points}": {"program": program, "num_points": points}
    for program in ("sb", "sb3", "mp", "iriw") for points in (4, 12)
}
CASES["sb3@12/max_runs=51"] = {
    "program": "sb3", "num_points": 12, "max_runs": 51}


def _config(**overrides) -> SynthConfig:
    return SynthConfig(designs=PAPER_DESIGNS, seed=1, sanitize=SANITIZE,
                       **overrides)


def _digest(report) -> str:
    data = report.to_dict()
    data["config"]["sanitize"] = "off"  # == to_json() when it is off
    blob = json.dumps(data, indent=2, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class _Calls(list):
    """(program, design, point) per ``run_program`` call; ``made``
    holds the runs, in call order."""

    def __init__(self):
        super().__init__()
        self.made = []


@pytest.fixture
def simulated(monkeypatch):
    """Every ``run_program`` call synthesis makes, as (program, design,
    point) keys — counted at the store's one call site, the module
    global ``RunStore.run`` calls through, which is also where
    ``bench/layer_trace.py`` rebinds."""
    calls = _Calls()
    real = oracles.run_program

    def counting(program, design, point, **kwargs):
        # the store's one call shape (docs/SYNTHESIS.md)
        assert set(kwargs) == {"faults", "sanitize", "warmups"}
        assert (kwargs["faults"] is not None) == point.jittered
        assert kwargs["sanitize"] == SANITIZE
        assert isinstance(kwargs["warmups"], RunStore)
        calls.append((program, design, point))
        calls.made.append(real(program, design, point, **kwargs))
        return calls.made[-1]

    monkeypatch.setattr(oracles, "run_program", counting)
    return calls


@pytest.mark.parametrize("program", ("sb", "sb3", "mp"))
def test_nothing_is_simulated_twice_and_nothing_survives(program, simulated):
    first = run_synthesis(_config(program=program, num_points=4))
    runs = list(simulated)
    assert len(set(runs)) == len(runs), "a run was simulated twice"
    if SANITIZE == "off":
        for i, (prog, design, point) in enumerate(runs):
            assert not any(
                shares_run(prog, run, design)
                for run in simulated.made[:i]
                if run.point == point), \
                f"{design} simulated a run an earlier design made"
    # S+ asks first, and Wee takes fenceless runs only; SW+ simulates
    # nothing for these programs: WS+ promotes no store there
    designs = {design for _, design, _ in runs}
    assert {FenceDesign.S_PLUS, FenceDesign.WEE} <= designs
    assert (FenceDesign.SW_PLUS in designs) == (SANITIZE != "off")
    assert first.simulated_runs == len(runs)
    # verdicts are still counted one per oracle question: the store
    # answered some of them (plus every cost run that was a search run)
    assert first.total_runs > first.simulated_runs
    assert "simulated_runs" not in first.to_dict()

    del simulated[:]
    second = run_synthesis(_config(program=program, num_points=4))
    assert simulated == runs, "a run outlived its run_synthesis call"
    assert second.simulated_runs == first.simulated_runs
    assert second.to_json() == first.to_json()


#: simulator runs of one call at ``--points 4``, seed 1: with the
#: store of shared runs, and under a sanitizer, which turns it off
#: (each design its own runs; 96 / 113 / 54 / 54 without the store)
SIMULATED = {("sb", "off"): 56, ("sb3", "off"): 62, ("mp", "off"): 14,
             ("iriw", "off"): 14, ("sb", "strict"): 96}


@pytest.mark.parametrize("program,sanitize", SIMULATED)
def test_design_inert_runs_are_simulated_once_per_call(program, sanitize):
    report = run_synthesis(SynthConfig(
        program=program, designs=PAPER_DESIGNS, seed=1, num_points=4,
        sanitize=sanitize))
    assert report.simulated_runs == SIMULATED[program, sanitize]
    assert _digest(report) == _pinned(f"{program}@4")


def _pinned(case: str) -> str:
    with open(TABLE) as fh:
        return json.load(fh)[case]


@pytest.mark.parametrize("case", CASES)
def test_reports_equal_the_parent_commit(case):
    report = run_synthesis(_config(**CASES[case]))
    assert _digest(report) == _pinned(case)


def test_starved_case_ends_exhausted():
    """The pinned starved case really exercises the verdict budget at
    each boundary (else its digest pins nothing about ``max_runs``)."""
    report = run_synthesis(_config(**CASES["sb3@12/max_runs=51"]))
    entries = report.designs
    assert entries["SW+"]["status"] == "exhausted-runs"
    assert entries["SW+"]["search_runs"] == 51  # starved in the search
    assert entries["S+"]["status"] == "exhausted-runs"
    assert entries["S+"]["audit_runs"] == 51    # starved in the audit
    assert entries["W+"]["status"] == "ok"


def _sb_oracle(store: RunStore,
               design=FenceDesign.S_PLUS) -> search.PlacementOracle:
    stripped = program_for_spec("sb").stripped()
    return search.PlacementOracle(
        stripped, store, design, tuple(adversary_points(1, 4)))


def _simulated_by(calls, design) -> int:
    return sum(1 for _, asked, _ in calls if asked is design)


def test_oracles_over_two_tables_share_nothing(simulated):
    placement = parse_placement("t0.i2=sf,t1.i2=sf")
    first = _sb_oracle(RunStore(SANITIZE))
    second = _sb_oracle(RunStore(SANITIZE))
    assert first.check(placement) is None
    assert len(simulated) == first.runs_used == 4
    assert second.check(placement) is None  # simulates all four again
    assert len(simulated) == 8 and second.runs_used == 4
    # while one oracle asked twice pays two verdicts and one run each
    assert first.check(placement) is None
    assert len(simulated) == 8 and first.runs_used == 8


@pytest.mark.skipif(SANITIZE != "off",
                    reason="a sanitized store keeps every run its own")
def test_tables_over_one_store_share_design_inert_and_unbounced_runs(
        simulated):
    store = RunStore(SANITIZE)
    s_plus, ws_plus, sw_plus, w_plus = (
        _sb_oracle(store, design)
        for design in (FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
                       FenceDesign.SW_PLUS, FenceDesign.W_PLUS))
    placement = parse_placement("t0.i2=sf,t1.i2=sf")
    assert s_plus.check(placement) is None
    assert len(simulated) == len(store.shared) == 4
    # WS+ runs an sf as S+ does: its four runs come from the store,
    # relabelled with its own design
    assert ws_plus.check(placement) is None
    assert len(simulated) == 4
    assert {run.design for (_, design, _), run in store.runs.items()
            if design is FenceDesign.WS_PLUS} == {FenceDesign.WS_PLUS}
    assert _simulated_by(simulated, FenceDesign.WS_PLUS) == 0
    # t0's wf sees no bounce at these points: SW+ and W+ (whose
    # placement carries a standard-role fence) take WS+'s runs
    stripped, points = ws_plus.stripped, ws_plus.points

    def ask(oracle, placement):
        program = placement.apply(stripped, oracle.design)
        return [store.run(program, oracle.design, point) for point in points]

    wf = parse_placement("t0.i2=wf")
    ask(ws_plus, wf)
    assert len(simulated) == 8
    ask(sw_plus, wf)
    w_runs = ask(w_plus, wf)
    assert len(simulated) == 8
    w_program = wf.apply(stripped, FenceDesign.W_PLUS)
    assert {(run.design, run.program) for run in w_runs} == \
        {(FenceDesign.W_PLUS, w_program)}
    # t1's wf bounces t0's store, which WS+ does not promote: SW+
    # takes those runs and W+, whose timeout a bounce may arm, does not
    bounced = parse_placement("t1.i2=wf")
    ask(ws_plus, bounced)
    ask(sw_plus, bounced)
    assert len(simulated) == 12
    assert all(run.stats.bounces for run in simulated.made[-4:])
    ask(w_plus, bounced)
    assert len(simulated) == 16
    assert _simulated_by(simulated, FenceDesign.SW_PLUS) == 0


def test_a_sanitized_table_uses_no_store():
    """Under a sanitizer a store answers only the question it was
    asked before: WS+ simulates the sf runs S+ made."""
    store = RunStore("strict")
    placement = parse_placement("t0.i2=sf,t1.i2=sf")
    for design in (FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
                   FenceDesign.S_PLUS):
        assert _sb_oracle(store, design).check(placement) is None
    assert store.simulated == 8 and store.shared == {}
    assert len(store.runs) == 8


def test_cost_calls_over_two_tables_share_nothing(simulated):
    program = program_for_spec("sb")
    stripped, sites = program.stripped(), extract_sites(program, "annotated")
    placement = parse_placement("t0.i2=sf")
    store, s_plus = RunStore(SANITIZE), FenceDesign.S_PLUS
    cycles = cost.measure_cycles(stripped, placement, store, s_plus)
    assert len(simulated) == len(store.runs) == 1
    assert cost.measure_cycles(stripped, placement, store, s_plus) == cycles
    assert len(simulated) == 1  # the store answered
    assert cost.measure_cycles(
        stripped, placement, RunStore(SANITIZE), s_plus) == cycles
    assert len(simulated) == 2

    del simulated[:]
    probes = cost.site_probes(stripped, sites, store, s_plus, cycles)
    assert probes["t0.i2"]["sf"] == 0  # the placement just measured
    # two sites x sf, one of them already in the store
    assert len(simulated) == 1
    assert len(store.runs) == 2


def test_the_table_carries_the_design_and_mode(simulated):
    """An oracle judges under its own design and its store's sanitizer
    mode (the ``simulated`` fixture checks the mode): a wf placement
    runs under W+, and S+, which has no wf, refuses it before any
    run."""
    oracle = _sb_oracle(RunStore(SANITIZE), FenceDesign.W_PLUS)
    oracle.check(parse_placement("t0.i2=wf,t1.i2=wf"))
    assert simulated
    assert {design for _, design, _ in simulated} == {FenceDesign.W_PLUS}
    runs = len(simulated)
    with pytest.raises(ConfigError, match="cannot express flavour wf"):
        _sb_oracle(RunStore(SANITIZE)).check(parse_placement("t0.i2=wf"))
    assert len(simulated) == runs


if __name__ == "__main__":
    # prints the pinned table; run it at the commit the digests are to
    # be taken from (it needs nothing this module tests)
    print(json.dumps(
        {case: _digest(run_synthesis(_config(**overrides)))
         for case, overrides in CASES.items()},
        indent=2))
