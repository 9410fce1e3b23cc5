"""The run store: the one place the litmus tools simulate.

``repro verify`` and ``repro synth`` ask the simulator the same
(program, design, point) questions, and both get every answer from a
:class:`repro.verify.oracles.RunStore` that lives for one call.  Here:

* nothing in the verify engine or in synthesis calls ``run_program``
  but through the store, and only the store hands ``run_program`` its
  warm-ups;
* the simulator runs and restored warm-ups of the default ``repro
  verify``, of the three campaigns the ``litmus_storm`` benchmark runs
  at seed 41, and of ``repro synth --program sb --points 4``;
* a call leaves its store holding no run, only warm-ups;
* a question asked twice gets the same run back, and a run another
  design can take is relabelled once.
"""

import ast
import pathlib

import pytest

import repro
import repro.synth.engine as synth_engine
import repro.verify.engine as verify_engine
from repro.cli import main
from repro.common.params import FenceDesign
from repro.synth import SynthConfig, run_synthesis
from repro.synth.programs import sb
from repro.verify.engine import VerifyConfig, run_verification
from repro.verify.oracles import PAPER_DESIGNS, RunStore
from repro.verify.perturb import DEFAULT_POINT

SRC = pathlib.Path(repro.__file__).parent

#: simulator runs of the three 250-run campaigns ``litmus_storm``
#: runs at seed 41, by campaign seed
STORM_CAMPAIGNS = {1976707158: 180, 1093687065: 188, 2080628809: 184}


def _calls_of(tree: ast.AST, name: str):
    """Every call of *name* in *tree*, as the ``ast.Call`` nodes."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_only_the_store_calls_run_program():
    callers = [SRC / "verify" / "engine.py",
               *sorted((SRC / "synth").glob("*.py"))]
    for path in callers:
        tree = ast.parse(path.read_text())
        assert _calls_of(tree, "run_program") == [], path
        assert not any(alias.name == "run_program"
                       for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names), path
    # exactly one function body hands run_program its warm-ups
    passing = []
    for path in SRC.rglob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    kw.arg == "warmups"
                    for call in _calls_of(fn, "run_program")
                    for kw in call.keywords):
                passing.append((path.relative_to(SRC).as_posix(), fn.name))
    assert passing == [("verify/oracles.py", "run")]


def test_default_verify_counts(capsys):
    # ddmin asks one of the shrinker's candidates twice; the store
    # answers the second ask without a simulation
    assert main(["verify", "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert "  simulator runs: 185\n" in text
    assert "  warm-ups restored: 175\n" in text


@pytest.mark.parametrize("seed", STORM_CAMPAIGNS)
def test_storm_campaign_counts(seed):
    report = run_verification(
        VerifyConfig(budget=250, shrink=False, seed=seed), out_path=None)
    assert report.runs == 250
    assert report.simulated_runs == STORM_CAMPAIGNS[seed]


def test_synth_counts():
    report = run_synthesis(SynthConfig(
        program="sb", designs=PAPER_DESIGNS, seed=1, num_points=4))
    assert (report.total_runs, report.simulated_runs,
            report.warmups_restored) == (282, 56, 33)


@pytest.fixture
def stores(monkeypatch):
    """Every store the two engines make."""
    made = []

    class Recorded(RunStore):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(verify_engine, "RunStore", Recorded)
    monkeypatch.setattr(synth_engine, "RunStore", Recorded)
    return made


def test_a_call_leaves_no_run_in_its_store(stores):
    run_verification(VerifyConfig(budget=60, seed=1), out_path=None)
    run_synthesis(SynthConfig(program="mp", num_points=4))
    assert len(stores) == 2
    for store in stores:
        assert store.simulated > 0
        assert store.runs == {} and store.shared == {}
        assert store.warm  # the warm-ups last the whole call


def test_a_question_asked_twice_gets_the_same_run():
    store = RunStore()
    run = store.run(sb(), FenceDesign.S_PLUS, DEFAULT_POINT)
    assert store.run(sb(), FenceDesign.S_PLUS, DEFAULT_POINT) is run
    # sb's standard fences are sfs under WS+ too: S+'s run, relabelled
    ws = store.run(sb(), FenceDesign.WS_PLUS, DEFAULT_POINT)
    assert ws is not run and ws.design is FenceDesign.WS_PLUS
    assert ws.cycles == run.cycles and ws.events is run.events
    assert store.run(sb(), FenceDesign.WS_PLUS, DEFAULT_POINT) is ws
    assert store.simulated == 1
    # W+ runs them as wfs: a run of its own
    store.run(sb(), FenceDesign.W_PLUS, DEFAULT_POINT)
    assert store.simulated == 2
    # S+ can take its own run, not W+'s
    store.retain((FenceDesign.S_PLUS,))
    assert list(store.runs) == [(sb(), FenceDesign.S_PLUS, DEFAULT_POINT)]
    assert list(store.shared.values()) == [run]
    store.retain(())
    assert store.shared == {} and store.warm
