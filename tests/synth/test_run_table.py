"""The run table: each (program, design, point) is simulated once.

A run is a pure function of (program, design, point, sanitizer mode),
so one design's synthesis keeps a ``(program, point) -> ProgramRun``
table (:class:`repro.synth.search.RunTable`) shared by its search
rounds, its audit and its cost sweep.  Three things are pinned here:

* inside one ``run_synthesis`` call nothing is simulated twice, and
  nothing survives the call — a second identical call simulates as
  many runs as the first (``test_determinism`` keeps comparing two
  real computations);
* the table changes no verdict, count or report byte: sha256 of
  ``report.to_json()`` for a matrix of configurations against
  ``run_table_pinned.json``, a table generated once at the commit
  *before* the run table existed (``PYTHONPATH=src python -m
  tests.synth.test_run_table`` prints it).  Regenerate it only for an
  intended report change, and say so in the commit;
* an oracle or cost call that is handed no table simulates for itself.

``REPRO_SANITIZE`` picks the sanitizer mode, as in the rest of the
battery (the CI ``synth-smoke`` job runs this module under ``strict``):
the table is bound to one mode, the sanitizer is zero-perturbation, so
the digests — taken with the ``config.sanitize`` field normalised to
``off`` — must not move.
"""

import hashlib
import json
import os

import pytest

import repro.synth.search as search
from repro.common.params import FenceDesign
from repro.synth import SynthConfig, cost, run_synthesis
from repro.synth.programs import program_for_spec
from repro.synth.sites import extract_sites
from repro.verify.oracles import PAPER_DESIGNS
from repro.verify.perturb import adversary_points

from tests.synth.util import parse_placement

TABLE = os.path.join(os.path.dirname(__file__), "run_table_pinned.json")
SANITIZE = os.environ.get("REPRO_SANITIZE", "off")

#: case id -> SynthConfig overrides; the last one starves the verdict
#: budget so that designs end exhausted in the search (SW+), exhausted
#: in the audit (S+, WS+, Wee) and ok (W+) within one report
CASES = {
    f"{program}@{points}": {"program": program, "num_points": points}
    for program in ("sb", "sb3", "mp", "iriw") for points in (4, 12)
}
CASES["sb3@12/max_runs=60"] = {
    "program": "sb3", "num_points": 12, "max_runs": 60}


def _config(**overrides) -> SynthConfig:
    return SynthConfig(designs=PAPER_DESIGNS, seed=1, sanitize=SANITIZE,
                       **overrides)


def _digest(report) -> str:
    data = report.to_dict()
    data["config"]["sanitize"] = "off"  # == to_json() when it is off
    blob = json.dumps(data, indent=2, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture
def simulated(monkeypatch):
    """Every ``run_program`` call synthesis makes, as (program, design,
    point) keys — counted at the module global the table calls
    through, which is also where ``bench/layer_trace.py`` rebinds."""
    calls = []
    real = search.run_program

    def counting(program, design, point, **kwargs):
        # the one call shape synthesis may use (docs/SYNTHESIS.md)
        assert set(kwargs) == {"faults", "sanitize"}
        assert (kwargs["faults"] is not None) == point.jittered
        assert kwargs["sanitize"] == SANITIZE
        calls.append((program, design, point))
        return real(program, design, point, **kwargs)

    monkeypatch.setattr(search, "run_program", counting)
    return calls


@pytest.mark.parametrize("program", ("sb", "sb3", "mp"))
def test_nothing_is_simulated_twice_and_nothing_survives(program, simulated):
    first = run_synthesis(_config(program=program, num_points=4))
    runs = list(simulated)
    assert len(set(runs)) == len(runs), "a run was simulated twice"
    assert {design for _, design, _ in runs} == set(PAPER_DESIGNS)
    assert first.simulated_runs == len(runs)
    # verdicts are still counted one per oracle question: the table
    # answered some of them (plus every cost run that was a search run)
    assert first.total_runs > first.simulated_runs
    assert "simulated_runs" not in first.to_dict()

    del simulated[:]
    second = run_synthesis(_config(program=program, num_points=4))
    assert simulated == runs, "a run outlived its run_synthesis call"
    assert second.simulated_runs == first.simulated_runs
    assert second.to_json() == first.to_json()


@pytest.mark.parametrize("case", CASES)
def test_reports_equal_the_parent_commit(case):
    with open(TABLE) as fh:
        pinned = json.load(fh)
    report = run_synthesis(_config(**CASES[case]))
    assert _digest(report) == pinned[case]


def test_starved_case_ends_exhausted():
    """The pinned starved case really exercises the verdict budget at
    each boundary (else its digest pins nothing about ``max_runs``)."""
    report = run_synthesis(_config(**CASES["sb3@12/max_runs=60"]))
    entries = report.designs
    assert entries["SW+"]["status"] == "exhausted-runs"
    assert entries["SW+"]["search_runs"] == 60  # starved in the search
    assert entries["S+"]["status"] == "exhausted-runs"
    assert entries["S+"]["audit_runs"] == 60    # starved in the audit
    assert entries["W+"]["status"] == "ok"


def _sb_oracle(design, table=None):
    stripped = program_for_spec("sb").stripped()
    return search.PlacementOracle(
        stripped, design, tuple(adversary_points(1, 4)),
        sanitize=SANITIZE, table=table)


def test_oracles_without_a_table_share_nothing(simulated):
    placement = parse_placement("t0.i2=sf,t1.i2=sf")
    first, second = (_sb_oracle(FenceDesign.S_PLUS) for _ in range(2))
    assert first.table is not second.table
    assert first.check(placement) is None
    assert len(simulated) == first.runs_used == 4
    assert second.check(placement) is None  # simulates all four again
    assert len(simulated) == 8 and second.runs_used == 4
    # while one oracle asked twice pays two verdicts and one run each
    assert first.check(placement) is None
    assert len(simulated) == 8 and first.runs_used == 8


def test_cost_calls_without_a_table_simulate_for_themselves(simulated):
    program = program_for_spec("sb")
    stripped, sites = program.stripped(), extract_sites(program, "annotated")
    args = (stripped, parse_placement("t0.i2=sf"), FenceDesign.S_PLUS)
    cycles = cost.measure_cycles(*args, sanitize=SANITIZE)
    assert len(simulated) == len(cost.COST_SEEDS)
    assert cost.measure_cycles(*args, sanitize=SANITIZE) == cycles
    assert len(simulated) == 2 * len(cost.COST_SEEDS)

    del simulated[:]
    table = search.RunTable(FenceDesign.S_PLUS, SANITIZE)
    assert cost.measure_cycles(*args, sanitize=SANITIZE,
                               table=table) == cycles
    probes = cost.site_probes(stripped, sites, FenceDesign.S_PLUS, cycles,
                              sanitize=SANITIZE, table=table)
    assert probes["t0.i2"]["sf"] == 0.0  # the placement just measured
    # two sites x sf, one of them already in the table
    assert len(simulated) == len(table.runs) == 2 * len(cost.COST_SEEDS)


def test_a_table_serves_only_its_own_design_and_mode():
    table = search.RunTable(FenceDesign.S_PLUS, SANITIZE)
    assert _sb_oracle(FenceDesign.S_PLUS, table).table is table
    with pytest.raises(ValueError, match="run table bound to"):
        _sb_oracle(FenceDesign.W_PLUS, table)
    other_mode = "warn" if SANITIZE == "off" else "off"
    with pytest.raises(ValueError, match="run table bound to"):
        cost.measure_cycles(
            program_for_spec("sb").stripped(), parse_placement("-"),
            FenceDesign.S_PLUS, sanitize=other_mode, table=table)


if __name__ == "__main__":
    # prints the pinned table; run it at the commit the digests are to
    # be taken from (it needs nothing this module tests)
    print(json.dumps(
        {case: _digest(run_synthesis(_config(**overrides)))
         for case, overrides in CASES.items()},
        indent=2))
