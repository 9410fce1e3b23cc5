"""An unjittered point's machine seed moves no litmus run.

The seed reaches a machine only as ``ThreadContext.rng``, and a litmus
thread never draws from it, so the schedule generators give an
unjittered point no seed of its own, and ``WarmStore`` keys a warm-up
without one.  The premise is pinned here three ways:

* with ``ThreadContext.rng`` made to raise, every named program and a
  sample of generated ones run to the end under the paper's five
  designs — W+ rollbacks, which rebuild a thread, included;
* at an unjittered point, two seeds give runs equal field for field
  apart from ``point`` — with and without a strict sanitizer, W+
  recoveries among them;
* at a jitter-armed adversary point the seed does change a run (it
  seeds the fault plan), so an armed point draws one.
"""

import dataclasses
import os
from dataclasses import replace

import pytest

from repro.common.params import FenceDesign
from repro.core.thread import ThreadContext
from repro.synth.programs import NAMED_PROGRAMS, program_for_spec
from repro.verify.generator import generate_program
from repro.verify.oracles import PAPER_DESIGNS, ProgramRun, run_program
from repro.verify.perturb import adversary_points, schedule_points

SANITIZE = os.environ.get("REPRO_SANITIZE", "off")

NAMED = tuple(program_for_spec(name) for name in NAMED_PROGRAMS)
GENERATED = tuple(generate_program(seed) for seed in range(1, 41))

#: the default timing and two drawn unjittered points
PLAIN_POINTS = tuple(schedule_points(1, 3))


def _fields(run: ProgramRun) -> dict:
    """Every field of *run* but its ``point`` label."""
    out = {f.name: getattr(run, f.name) for f in dataclasses.fields(run)
           if f.name not in ("point", "stats")}
    out["stats"] = run.stats.to_dict()
    return out


def _run(program, design, point, sanitize=SANITIZE) -> ProgramRun:
    # the call synthesis makes (docs/SYNTHESIS.md, "Run table")
    return run_program(program, design, point, faults=point.injector(),
                       sanitize=sanitize)


def test_litmus_threads_never_draw(monkeypatch):
    def refuse(ctx):
        raise AssertionError(f"thread {ctx.tid} drew from ctx.rng")

    monkeypatch.setattr(ThreadContext, "rng", property(refuse))
    recoveries = 0
    for program in NAMED + GENERATED:
        for design in PAPER_DESIGNS:
            run = _run(program, design, PLAIN_POINTS[0])
            assert run.completed and run.error is None, (
                f"{program.name} under {design}: {run.error}")
            recoveries += run.recoveries
    assert recoveries > 0, "no W+ rollback rebuilt a thread"


@pytest.mark.parametrize("sanitize", ("off", "strict"))
def test_two_seeds_of_an_unjittered_point_give_one_run(sanitize):
    recovered = 0
    for point in PLAIN_POINTS:
        other = replace(point, seed=point.seed + 7919)
        assert not point.jittered
        for program in NAMED + GENERATED[:10]:
            for design in PAPER_DESIGNS:
                first = _run(program, design, point, sanitize)
                second = _run(program, design, other, sanitize)
                assert second.point == other
                assert _fields(second) == _fields(first), (
                    f"{program.name} under {design} at {point} moved "
                    f"with the seed")
                if design is FenceDesign.W_PLUS:
                    recovered += first.recoveries
    assert recovered > 0, "the sample holds no W+ recovery"


def test_a_jittered_point_keeps_its_seed():
    armed = [p for p in adversary_points(1, 6) if p.jittered]
    assert armed
    program = program_for_spec("sb").stripped()
    moved = [
        point for point in armed
        if _fields(_run(program, FenceDesign.S_PLUS, point)) != _fields(
            _run(program, FenceDesign.S_PLUS,
                 replace(point, seed=point.seed + 1)))
    ]
    assert moved, "no jittered point's run depends on its seed"
