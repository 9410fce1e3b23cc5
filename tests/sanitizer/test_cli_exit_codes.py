"""The CLI exit-code contract (README "CLI exit codes").

0 = success, 1 = correctness-oracle failure, 2 = usage error,
4 = simulated-machine deadlock, 5 = sanitizer violation (3 is retired
and not reused).  Scripts and CI branch on these, so each mapping is
pinned here — including ``repro.common.errors.EXIT_BY_ERROR``, the
table ``main()`` consults, exercised by monkeypatching a command
handler to raise.
"""

import pytest

import repro.cli as cli
from repro.common.errors import DeadlockError, SanitizerError, SCViolationError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RUN_ARGS = ("run", "fib", "--design", "S+", "--cores", "2",
            "--scale", "0.06")


def test_clean_sanitized_run_exits_zero(capsys):
    code, out, _ = run_cli(capsys, *RUN_ARGS, "--sanitize", "strict")
    assert code == 0
    assert "completed" in out


def test_budget_cutoff_reports_degraded_but_exits_zero(capsys):
    # a budget cutoff is the governor *working*, not a failure
    code, out, _ = run_cli(capsys, *RUN_ARGS, "--max-events", "500")
    assert code == 0
    assert "degraded: event budget exhausted" in out


@pytest.mark.parametrize("argv", [
    (*RUN_ARGS, "--max-events", "0"),
    (*RUN_ARGS, "--max-events", "-5"),
    (*RUN_ARGS, "--max-wall-secs", "-1"),
    (*RUN_ARGS, "--max-wall-secs", "0"),
    ("synth", "--program", "sb", "--max-wall-secs", "0"),
    ("farm", "submit", "--workloads", "fib", "--max-events", "0"),
    ("synth", "--program", "sb", "--designs", "S+,W+", "--points", "0"),
    ("synth", "--program", "sb", "--points", "-3"),
    ("synth", "--program", "sb", "--max-runs", "0"),
    ("verify", "--budget", "0"),
], ids=["run-events-0", "run-events-neg", "run-wall-neg", "run-wall-0",
        "synth-wall-0", "farm-submit-events-0", "synth-points-0",
        "synth-points-neg", "synth-max-runs-0", "verify-budget-0"])
def test_a_budget_of_zero_or_below_is_a_usage_error(capsys, argv):
    """Regression: 0 used to read as "no budget" (an unbounded run) and
    a negative ceiling was accepted and breached at the first check.
    A synthesis with no adversary point or no verdict to spend, or a
    verification of no run, judged nothing and still reported a pass
    (``--points 0`` certified the unfenced Dekker program)."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == 2
    assert "must be above 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ("--no-audit",), ("--audit-factor", "3"),
], ids=["no-audit", "audit-factor"])
def test_synth_has_no_audit_knobs(capsys, flag):
    """The audit always runs, at twice the search's points."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["synth", "--program", "sb", *flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_more_points_than_the_audit_can_draw_is_a_usage_error(
        capsys, monkeypatch):
    """The audit draws 2 x ``--points`` distinct adversary points, and
    the sweep axes fill at most 161: ``--points 81`` would redraw
    forever.  It is refused before any job is submitted."""
    import repro.farm.clients as clients

    def submit(*_args, **_kwargs):
        raise AssertionError("a synthesis job was submitted")

    monkeypatch.setattr(clients, "farm_synthesis", submit)
    code, out, err = run_cli(capsys, "synth", "--program", "sb",
                             "--points", "81", "--farm-workers", "0")
    assert code == 2
    assert "162 distinct adversary points" in err
    assert "verdicts" not in out


def test_usage_error_exits_two(capsys):
    code, _, _ = run_cli(capsys, "run", "nope", "--cores", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--designs", "S+,S+", "--budget", "10", "--no-shrink",
     "--out", "-"),
    ("synth", "--program", "sb", "--designs", "S+,S+", "--points", "2",
     "--farm-workers", "0", "--out", "-"),
    ("chaos", "--scenarios", "noc_jitter", "--designs", "W+,wplus",
     "--seeds", "1", "--farm-workers", "0", "--out", "-"),
    ("farm", "submit", "--db", "{db}", "--workloads", "fib",
     "--designs", "S+,WS+,S+"),
], ids=["verify", "synth", "chaos-alias", "farm-submit"])
def test_a_design_named_twice_is_a_usage_error(capsys, tmp_path, argv):
    """Regression: a repeated design ran every one of its runs twice
    and counted them into a report holding one entry for it (synth
    printed "oracle verdicts: 56" for a report of 28)."""
    db = str(tmp_path / "farm.sqlite")
    code, out, err = run_cli(capsys, *(a.format(db=db) for a in argv))
    assert code == 2
    assert "given more than once" in err
    assert "verdicts" not in out and "runs over" not in out


def test_bad_sanitize_mode_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*RUN_ARGS, "--sanitize", "paranoid"])
    assert excinfo.value.code == 2  # argparse choices


@pytest.mark.parametrize("argv", [
    RUN_ARGS,
    ("profile", "run", "fib", "--design", "S+", "--cores", "2",
     "--scale", "0.06"),
    ("farm", "submit", "--db", "{db}", "--workloads", "fib"),
], ids=["run", "profile", "farm-submit"])
def test_bad_sanitize_env_is_a_usage_error(monkeypatch, capsys, tmp_path,
                                           argv):
    monkeypatch.setenv("REPRO_SANITIZE", "paranoid")
    db = str(tmp_path / "farm.sqlite")
    code, _, err = run_cli(capsys, *(a.format(db=db) for a in argv))
    assert code == 2
    assert "unknown sanitizer mode 'paranoid'" in err


@pytest.mark.parametrize("exc,code,marker", [
    (SanitizerError("dir-owner-in-sharers at cycle 3000",
                    diagnostics_path="/tmp/x.json"), 5, "sanitizer"),
    (DeadlockError("no progress for 50000 cycles"), 4, "deadlock"),
    (SCViolationError("cycle of length 4"), 1, "SC violation"),
])
def test_escaped_simulator_errors_map_to_documented_codes(
        monkeypatch, capsys, exc, code, marker):
    def boom(args):
        raise exc

    monkeypatch.setitem(cli.__dict__, "cmd_run", boom)
    got = cli.main(list(RUN_ARGS))
    assert got == code
    err = capsys.readouterr().err
    assert marker in err
    if getattr(exc, "diagnostics_path", None):
        assert "diagnostics written to" in err


def test_warn_mode_violations_exit_five(monkeypatch, capsys):
    """``--sanitize warn`` finishes the run but still reports failure:
    a violating run must not look green to scripts."""
    from repro.sanitizer import Sanitizer

    orig = Sanitizer.check_all

    def poisoned(self):
        orig(self)
        if self.machine.queue.now > 0 and not self.violations:
            self._report("wb-fifo", core=0, detail="synthetic")

    monkeypatch.setattr(Sanitizer, "check_all", poisoned)
    code, out, err = run_cli(capsys, *RUN_ARGS, "--sanitize", "warn")
    assert code == 5
    assert "sanitizer" in err or "violation" in out


def test_chaos_catching_the_illegal_scenario_is_success(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "chaos", "--scenarios", "illegal_drop", "--designs", "S+",
        "--seeds", "2", "--out", str(tmp_path / "r.json"),
    )
    assert code == 0  # caught_illegal is the harness working
    assert "caught" in out


@pytest.mark.parametrize("workers", ["0", "2"])
@pytest.mark.parametrize("exc,code,marker", [
    (SanitizerError("dir-owner-in-sharers at cycle 3000"), 5, "sanitizer"),
    (DeadlockError("no progress for 50000 cycles"), 4, "deadlock"),
    (SCViolationError("cycle of length 4"), 1, "SC violation"),
])
def test_a_failing_matrix_job_keeps_its_exit_code(
        monkeypatch, capsys, exc, code, marker, workers):
    """A figure's matrix job that raises exits with that error's code
    and names its message, inline or on a worker pool."""
    from repro.eval import runner

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(runner, "run_summary", boom)
    monkeypatch.delenv("REPRO_FARM_DB", raising=False)
    monkeypatch.setenv("REPRO_FARM_WORKERS", workers)
    got, _, err = run_cli(capsys, "figure", "12", "--scale", "0.05")
    assert got == code
    assert marker in err
    assert str(exc) in err
