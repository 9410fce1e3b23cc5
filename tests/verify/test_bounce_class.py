"""Bounce-class runs: WS+, SW+ and W+ share a run until it bounces.

The three wf designs use one weak fence, a Bypass Set that bounces
remote writes, and differ only in how they resolve a bounce (§3.3):
WS+ promotes the bounced pre-wf write to an Order, SW+ to a
Conditional Order, W+ arms a timeout and rolls back.
``repro.verify.oracles.shares_run`` turns that into a rule on the
finished run, and the run store of ``repro verify`` and ``repro
synth`` (``RunStore``) relabels a run the rule accepts instead of
simulating it again, so the rule must be exact.  Here, over named programs with every role variant
and generated ones, at plain and jitter-armed points:

* every WS+/SW+ pair the rule accepts (either run for the other
  design) is one run, field for field apart from its design;
* every W+/WS+ pair of one flavoured program the rule accepts is one
  run apart from its design and program;
* the rule has teeth: pairs it rejects do differ;
* a sanitized synthesis stores nothing;
* the policy facts the rule rests on hold.
"""

import itertools
from functools import lru_cache

import pytest

from repro.common.params import FenceDesign, FenceRole
from repro.fences.base import FencePolicy, policy_class
from repro.fences.ws_plus import WSPlusPolicy
from repro.synth import SynthConfig, run_synthesis
from repro.synth.programs import iriw, mp, sb, sb3
from repro.verify.generator import generate_program
from repro.verify.oracles import (
    BOUNCE_CLASS,
    PAPER_DESIGNS,
    RunStore,
    flavoured,
    run_program,
    shares_run,
)
from repro.verify.perturb import SchedulePoint, adversary_points, schedule_points

WS, SW, W = FenceDesign.WS_PLUS, FenceDesign.SW_PLUS, FenceDesign.W_PLUS

#: plain points of a short sweep, and the armed adversary points
POINTS = tuple(schedule_points(1, 3)) + tuple(
    p for p in adversary_points(1, 6) if p.jittered)


def _variants(build, fences):
    return [build(roles) for roles in itertools.product(
        (FenceRole.STANDARD, FenceRole.CRITICAL), repeat=fences)]


#: (program, point): each named program with every role variant at
#: every point, and generated programs each at one point, cycled
CASES = tuple(
    (program, point)
    for program in (_variants(sb, 2) + _variants(sb3, 3)
                    + _variants(mp, 2) + _variants(iriw, 2))
    for point in POINTS
) + tuple((generate_program(seed), POINTS[seed % len(POINTS)])
          for seed in range(1, 201))


def _run(program, design, point):
    # the call synthesis makes; verify's points carry no jitter, so
    # ``point.injector()`` is None there and this is verify's call too
    return run_program(program, design, point, faults=point.injector())


def _fields(run):
    return (run.completed, run.cycles, run.deadlock, run.error, run.scv,
            run.stats.to_dict(), run.events, run.observed, run.final)


@lru_cache(maxsize=None)
def _pairs(left, right):
    """``[(program, left run, right run, accepted)]`` over CASES, the
    *right* design running the program as *left* does (for W+, the
    all-wf program with critical roles); accepted when the rule takes
    either run for the other design."""
    pairs = []
    for program, point in CASES:
        if not program.has_fences:
            continue
        a = _run(program, left, point)
        other = flavoured(program, left)
        b = _run(other, right, point)
        accepted = shares_run(other, a, right) or shares_run(program, b, left)
        pairs.append((program, a, b, accepted))
    return pairs


def test_every_accepted_ws_sw_pair_is_one_run():
    pairs = _pairs(WS, SW)
    accepted = [(p, a, b) for p, a, b, ok in pairs if ok]
    assert accepted and len(accepted) < len(pairs)
    for program, a, b in accepted:
        assert _fields(a) == _fields(b), (
            f"{program.name} {program.describe()} at {a.point}: WS+ and "
            "SW+ differ though the rule shares them")
        assert (a.design, b.design) == (WS, SW)


def test_every_accepted_w_ws_pair_is_one_run():
    pairs = _pairs(W, WS)
    accepted = [(p, a, b) for p, a, b, ok in pairs if ok]
    assert accepted and len(accepted) < len(pairs)
    assert any(a.point.jittered for _, a, _ in accepted)
    for program, a, b in accepted:
        assert _fields(a) == _fields(b), (
            f"{program.name} {program.describe()} at {a.point}: W+ and "
            "WS+ differ though the rule shares them")
        assert (a.program, b.program) == (program, flavoured(program, W))


def test_the_rule_has_teeth():
    """sb with both fences critical makes WS+ promote a store at the
    default point: SW+ issues a Conditional Order there instead, and
    the rule refuses the pair.  Bounced all-wf W+/WS+ pairs differ."""
    critical = sb((FenceRole.CRITICAL, FenceRole.CRITICAL))
    point = SchedulePoint()
    ws, sw = _run(critical, WS, point), _run(critical, SW, point)
    assert ws.stats.order_ops and not shares_run(critical, ws, SW)
    assert not shares_run(critical, sw, WS)
    assert _fields(ws) != _fields(sw)
    bounced = [(a, b) for _, a, b, ok in _pairs(W, WS) if not ok]
    assert bounced and all(a.stats.bounces for a, _ in bounced)
    assert any(_fields(a) != _fields(b) for a, b in bounced)


def test_the_rule_reads_flavours_not_roles():
    """A run is offered only to a program that runs the same fences
    with the same flavours: S+'s sf is not WS+'s wf, and W+ meets WS+
    only where WS+'s fences are critical."""
    program = sb((FenceRole.STANDARD, FenceRole.CRITICAL))
    run = _run(program, WS, SchedulePoint())
    assert not shares_run(program, run, FenceDesign.S_PLUS)
    assert not shares_run(program, run, W)
    assert flavoured(program, W) == sb((FenceRole.CRITICAL,) * 2)
    assert flavoured(program, WS) == program
    assert flavoured(program, FenceDesign.S_PLUS) == sb()
    for design in PAPER_DESIGNS:
        assert shares_run(program, _run(program, design, SchedulePoint()),
                          design)


def test_a_sanitized_synthesis_stores_nothing(monkeypatch):
    stores = []
    real = RunStore.retain

    def spying(store, readers):
        stores.append(dict(store.shared))
        return real(store, readers)

    monkeypatch.setattr(RunStore, "retain", spying)
    run_synthesis(SynthConfig(program="sb", designs=PAPER_DESIGNS, seed=1,
                              num_points=4, sanitize="strict"))
    assert len(stores) == len(PAPER_DESIGNS)
    assert stores == [{}] * len(PAPER_DESIGNS)


@pytest.mark.parametrize("design", FenceDesign, ids=str)
def test_a_bounce_class_policy_departs_from_ws_plus_only_at_a_bounce(design):
    """``BOUNCE_CLASS`` is the rule's one set: its policies keep
    every hook a bounce-free wf reaches as WS+ has it.  SW+ overrides
    nothing but the promotion's flavour and the BS's word masks; W+
    adds its checkpoint and deadlock monitor and drops the promotion
    (``on_wf_retire`` and ``on_pre_store_bounce`` act on bouncing
    stores only).  Wee's load check and GRT keep it out."""
    cls = policy_class(design)
    own = {name for name in vars(cls)
           if not name.startswith("__") and not name.startswith("synth_")}
    base_hooks = ("on_wf_complete", "completion_blocked",
                  "load_stall_check", "sf_base_cost")
    kept = (all(getattr(cls, hook) is getattr(FencePolicy, hook)
                for hook in base_hooks)
            and cls.custom_strong_fence is None)
    if design is WS:
        assert kept and issubclass(cls, FencePolicy)
    elif design is SW:
        assert kept and issubclass(cls, WSPlusPolicy)
        assert own == {"design", "conditional", "fine_grain_bs"}
    elif design is W:
        assert kept and not issubclass(cls, WSPlusPolicy)
        assert own == {"design", "needs_checkpoint", "needs_deadlock_monitor",
                       "conventional_sf", "sanitizer_check"}
    assert (design in BOUNCE_CLASS) == (design in (WS, SW, W))
