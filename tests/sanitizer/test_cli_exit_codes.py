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


def test_usage_error_exits_two(capsys):
    code, _, _ = run_cli(capsys, "run", "nope", "--cores", "2")
    assert code == 2


def test_bad_sanitize_mode_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*RUN_ARGS, "--sanitize", "paranoid"])
    assert excinfo.value.code == 2  # argparse choices


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
