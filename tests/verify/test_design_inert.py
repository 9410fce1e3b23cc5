"""Design-inert runs: one simulation stands for every design.

``repro.verify.oracles.design_inert`` says when a run cannot depend on
the fence design: the program has no fence, or the design's policy
runs a conventional sf (S+, WS+, SW+) and every fence is an sf there.
``run_verification`` simulates such a run once and relabels it for the
other designs, so the rule must be exact.  Here every design-inert run
of a sample — named programs and generated ones, fenced and stripped,
at plain schedule points and at jitter-armed adversary points — is
simulated under each design it is inert for and compared with the
first asker's run, field for field; a negative control shows a
critical-role fence under WS+ really does run differently.
"""

from collections import Counter

import pytest

import repro.verify.engine as engine
import repro.verify.oracles as oracles
from repro.common.params import FenceDesign, FenceRole
from repro.fences.base import FencePolicy, policy_class
from repro.synth.programs import NAMED_PROGRAMS, program_for_spec, sb
from repro.verify.engine import VerifyConfig, run_verification
from repro.verify.generator import generate_program
from repro.verify.oracles import check_invariants, design_inert, run_program
from repro.verify.perturb import adversary_points, schedule_points

#: every plain point of a short sweep, and the armed adversary points
POINTS = tuple(schedule_points(1, 3)) + tuple(
    p for p in adversary_points(1, 6) if p.jittered)

PROGRAMS = tuple(program_for_spec(name) for name in NAMED_PROGRAMS) + tuple(
    generate_program(seed) for seed in range(6))


def _run(program, design, point):
    # the call synthesis makes; verify's points carry no jitter, so
    # ``point.injector()`` is None there and this is verify's call too
    return run_program(program, design, point, faults=point.injector())


def _fields(run):
    return (run.completed, run.cycles, run.deadlock, run.error, run.scv,
            run.stats.to_dict(), run.events, run.observed, run.final)


def test_the_sample_covers_both_kinds_of_sharing():
    """Fenceless programs are inert under every design, fenced ones
    with standard-role fences under S+, WS+ and SW+ only — and the
    sample holds programs the rule does not cover."""
    fenced = [p for p in PROGRAMS if p.has_fences]
    assert all(design_inert(p.stripped(), d)
               for p in PROGRAMS for d in FenceDesign)
    assert any(design_inert(p, FenceDesign.WS_PLUS) for p in fenced)
    assert any(not design_inert(p, FenceDesign.WS_PLUS) for p in fenced)
    assert not any(design_inert(p, d) for p in fenced for d in (
        FenceDesign.W_PLUS, FenceDesign.WEE, FenceDesign.LMF,
        FenceDesign.CFENCE))
    assert any(p.jittered for p in POINTS)


@pytest.mark.parametrize("design", FenceDesign, ids=str)
def test_a_conventional_sf_policy_keeps_every_hook_an_sf_reaches(design):
    """``FencePolicy.conventional_sf`` is the rule's one source: a
    policy that claims it leaves the sf path and every non-wf hook as
    the base class has them.  Table 1 names S+, WS+ and SW+."""
    cls = policy_class(design)
    kept = (cls.sf_base_cost is FencePolicy.sf_base_cost
            and cls.custom_strong_fence is None
            and cls.load_stall_check is FencePolicy.load_stall_check
            and not cls.needs_checkpoint
            and not cls.needs_deadlock_monitor)
    if cls.conventional_sf:
        assert kept
    assert cls.conventional_sf == (design in (
        FenceDesign.S_PLUS, FenceDesign.WS_PLUS, FenceDesign.SW_PLUS))


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_every_design_inert_run_equals_the_first_askers(program):
    for variant in (program, program.stripped()):
        designs = [d for d in FenceDesign if design_inert(variant, d)]
        for point in POINTS:
            first = _run(variant, designs[0], point)
            for design in designs[1:]:
                run = _run(variant, design, point)
                assert _fields(run) == _fields(first), (
                    f"{variant.name} under {design} at {point} differs "
                    f"from {designs[0]}")


def test_a_critical_fence_under_ws_plus_is_not_inert():
    """Negative control: the rule is not vacuous.  sb with a
    critical-role fence runs a wf under WS+, and that run differs from
    S+'s, while the all-standard sb does not."""
    critical = sb((FenceRole.CRITICAL, FenceRole.STANDARD))
    assert not design_inert(critical, FenceDesign.WS_PLUS)
    assert design_inert(critical, FenceDesign.S_PLUS)
    point = POINTS[0]
    strong = _run(critical, FenceDesign.S_PLUS, point)
    weak = _run(critical, FenceDesign.WS_PLUS, point)
    assert weak.stats.wf_executed != strong.stats.wf_executed
    assert _fields(weak) != _fields(strong)
    assert _fields(_run(sb(), FenceDesign.WS_PLUS, point)) == \
        _fields(_run(sb(), FenceDesign.S_PLUS, point))


def test_verify_simulates_fewer_runs_than_it_reports(monkeypatch):
    """A fenced campaign answers some trials with a relabelled run: it
    makes fewer ``run_program`` calls than trials (counted at the
    module global the run store calls, which the layer trace of
    ``bench/`` also wraps), and every relabelled trial carries its own
    design."""
    calls, judged = [], []

    def counting(program, design, point, **kwargs):
        # the store's one call shape: no jitter at verify's points
        assert kwargs == {"faults": None, "sanitize": "off",
                          "warmups": kwargs["warmups"]}
        calls.append((program, design, point))
        return run_program(program, design, point, **kwargs)

    def judging(run):
        judged.append(str(run.design))
        return check_invariants(run)

    monkeypatch.setattr(oracles, "run_program", counting)
    monkeypatch.setattr(engine, "check_invariants", judging)
    report = run_verification(VerifyConfig(budget=60, shrink=False, seed=1),
                              out_path=None)
    assert len(calls) < report.runs == 60
    # each fenced trial's run is judged under the trial's own design
    assert Counter(judged) == {
        name: row["runs"] for name, row in report.per_design.items()}
    inert = [(p, pt) for p, d, pt in calls if design_inert(p, d)
             and p.has_fences]
    assert len(inert) == len(set(inert)), "an inert trial ran twice"
