"""The chaos harness: illegal-scenario detection, ddmin shrinking, and
the ``repro chaos`` CLI."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.common.params import FenceDesign
from repro.faults.chaos import (
    run_chaos_case,
    run_chaos_matrix,
    shrink_failing_case,
)
from repro.verify.shrink import ddmin


# ----------------------------------------------------------------------
# generic ddmin
# ----------------------------------------------------------------------

class TestDdmin:
    def test_shrinks_to_the_single_culprit(self):
        items = list(range(20))
        minimized, runs = ddmin(items, lambda s: 13 in s)
        assert minimized == [13]
        assert runs > 0

    def test_keeps_a_conjunction_of_culprits(self):
        items = list(range(30))
        minimized, _ = ddmin(items, lambda s: 4 in s and 17 in s)
        assert minimized == [4, 17]

    def test_preserves_item_order(self):
        minimized, _ = ddmin(list(range(10)),
                             lambda s: 7 in s and 2 in s)
        assert minimized == [2, 7]

    def test_collapses_to_empty_when_failure_is_unconditional(self):
        minimized, _ = ddmin(list(range(8)), lambda s: True)
        assert minimized == []

    def test_respects_max_runs(self):
        calls = []

        def prop(s):
            calls.append(1)
            return 5 in s

        ddmin(list(range(100)), prop, max_runs=7)
        assert len(calls) <= 7


# ----------------------------------------------------------------------
# illegal scenario: caught, shrunk, replayed
# ----------------------------------------------------------------------

def _first_failing_illegal_case(designs=(FenceDesign.S_PLUS,),
                                sanitize="strict"):
    for design in designs:
        for seed in range(1, 10):
            case = run_chaos_case("illegal_drop", design, seed,
                                  sanitize=sanitize)
            if case.failed:
                return case
    pytest.fail("illegal_drop never tripped the oracles")


def test_illegal_drop_is_caught():
    caught = sum(
        run_chaos_case("illegal_drop", FenceDesign.S_PLUS, seed).failed
        for seed in range(1, 11)
    )
    # dropped messages hang the protocol almost always at these rates
    assert caught >= 8


def test_illegal_drop_is_caught_by_the_sanitizer_at_first_violation():
    # the default (strict) sanitizer classifies the dropped message at
    # the first sampling tick that sees an undeliverable event — long
    # before the watchdog's no-progress timeout would fire
    case = _first_failing_illegal_case()
    assert case.sanitizer is not None
    assert any(v.startswith("sanitizer") for v in case.violations)
    assert "event-horizon" in case.sanitizer


def test_illegal_drop_without_sanitizer_reproduces_the_late_deadlock():
    # sanitize="off" preserves the legacy behaviour: the failure only
    # surfaces when the watchdog times the hung run out, much later
    strict = _first_failing_illegal_case()
    off = run_chaos_case("illegal_drop", FenceDesign(strict.design),
                         strict.seed, sanitize="off")
    assert off.failed
    assert any(v.startswith(("deadlock", "livelock"))
               for v in off.violations)
    assert off.sanitizer is None
    assert strict.cycles < off.cycles


def test_shrink_finds_a_minimal_injection_subset():
    case = _first_failing_illegal_case()
    shrunk = shrink_failing_case(case)
    assert shrunk.shrunk is not None
    assert 1 <= len(shrunk.shrunk) < 8  # well under the drop budget
    assert all(site == "noc_drop" for site, _n in shrunk.shrunk)
    assert shrunk.shrink_runs >= 1


def test_shrunk_subset_still_reproduces_the_failure():
    from repro.faults import FaultInjector, make_plan
    from repro.faults.chaos import _case_violations, _execute

    case = shrink_failing_case(_first_failing_illegal_case())
    plan = make_plan(case.scenario, case.seed)
    # replay under the same oracle set the case was detected with: a
    # minimal drop subset may not deadlock, but the sanitizer still
    # flags the undeliverable message
    run, injector = _execute(plan, FenceDesign(case.design), case.seed,
                             allowed=case.shrunk, sanitize=case.sanitize)
    assert _case_violations(run, plan)
    assert set(injector.log) <= set(case.shrunk)


def test_matrix_separates_legal_failures_from_caught_illegal():
    report = run_chaos_matrix(
        ["noc_jitter", "illegal_drop"],
        [FenceDesign.S_PLUS],
        seeds=range(1, 6),
    )
    assert report["total_cases"] == 10
    assert report["failed_legal"] == 0
    assert report["caught_illegal"] >= 4


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_chaos_green_path(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = cli_main([
        "chaos", "--scenarios", "noc_jitter", "--designs", "S+,W+",
        "--seeds", "3", "--out", out,
    ])
    assert rc == 0
    report = json.load(open(out))
    assert report["total_cases"] == 6
    assert report["failed_legal"] == 0
    assert "ok" in capsys.readouterr().out


def test_cli_chaos_shrink_flags_illegal_scenario(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = cli_main([
        "chaos", "--scenarios", "illegal_drop", "--designs", "S+",
        "--seeds", "3", "--shrink", "--out", out,
    ])
    # catching the deliberately broken scenario is the harness working:
    # exit 1 is reserved for legal failures and *missed* illegal cases
    assert rc == 0
    report = json.load(open(out))
    assert report["caught_illegal"] >= 1
    shrunk = [c for c in report["cases"] if c["shrunk"] is not None]
    assert shrunk and all(len(c["shrunk"]) >= 1 for c in shrunk)
    assert "shrunk to" in capsys.readouterr().out


def test_cli_chaos_rejects_unknown_scenario(capsys):
    rc = cli_main(["chaos", "--scenarios", "nope"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_failing_case_writes_attribution_postmortem(tmp_path):
    """With a diag_dir, a failing chaos case gets a cycle-attribution
    postmortem next to its diagnostics — where the cycles went, with
    the conservation check still holding on the aborted run."""
    import json as _json

    diag = str(tmp_path / "diag")
    case = run_chaos_case("illegal_drop", FenceDesign.W_PLUS, 3,
                          diag_dir=diag, sanitize="strict")
    assert case.failed
    assert case.attrib_path and case.attrib_path.startswith(diag)
    report = _json.load(open(case.attrib_path))
    assert report["schema"] == "repro.profile/1"
    assert report["conservation"]["ok"]
    prov = report["provenance"]
    assert prov["fault_scenario"] == "illegal_drop"
    assert prov["design"] == "W+"


def test_passing_case_writes_no_attribution_postmortem(tmp_path):
    diag = str(tmp_path / "diag")
    case = run_chaos_case("noc_jitter", FenceDesign.S_PLUS, 3,
                          diag_dir=diag)
    assert not case.failed
    assert case.attrib_path is None
