"""The ``repro verify`` CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.common.params import FenceDesign


def test_verify_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--designs", "S+,W+", "--budget", "20",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "verify: 20 runs" in text
    assert "verdict: OK" in text
    data = json.loads(out.read_text())
    assert data["runs"] == 20
    assert data["config"]["designs"] == ["S+", "W+"]


def test_verify_cli_all_designs_no_report(capsys):
    rc = main(["verify", "--budget", "12", "--no-shrink", "--out", "-"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "S+" in text and "Wee" in text
    assert "[report written" not in text


def test_verify_cli_rejects_unknown_design(capsys):
    rc = main(["verify", "--designs", "nope", "--budget", "5"])
    assert rc == 2
    assert "unknown design" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "-"],
    ["chaos", "--out", "-"],
    ["farm", "submit", "--workloads", "fib"],
], ids=["synth", "chaos", "farm-submit"])
@pytest.mark.parametrize("designs,complaint", [
    ("nope", "unknown design 'nope'"), (" , ", "no designs given")])
def test_every_designs_flag_shares_the_verify_parser(
        argv, designs, complaint, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FARM_DB", str(tmp_path / "farm.sqlite"))
    assert main([*argv, "--designs", designs]) == 2
    assert complaint in capsys.readouterr().err


def test_designs_list_takes_all_or_a_comma_list_of_aliases():
    from repro.cli import _designs_list
    from repro.verify.oracles import PAPER_DESIGNS

    assert _designs_list(" ALL ") == PAPER_DESIGNS
    assert _designs_list("S+, wplus,") == (FenceDesign.S_PLUS,
                                           FenceDesign.W_PLUS)


def test_verify_cli_prints_the_simulator_runs_it_made(monkeypatch, capsys):
    """The summary's ``simulator runs`` counts every ``run_program``
    call, the shrinker's included, and stays out of the JSON report."""
    import repro.verify.engine as engine

    calls = []
    real = engine.run_program

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "run_program", counting)
    assert main(["verify", "--budget", "60", "--seed", "1",
                 "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert f"  simulator runs: {len(calls)}\n" in text
    assert 0 < len(calls)
    report = engine.run_verification(engine.VerifyConfig(
        budget=60, seed=1, shrink=False), out_path=None)
    assert report.simulated_runs < report.runs == 60
    assert "simulated_runs" not in report.to_dict()
