"""Warm-up restore: a litmus warm-up is simulated once per call.

Every litmus thread starts by loading each warm variable and computing
``WARMUP_COMPUTE`` instructions; no fence runs there, so the phase is
the same under every design.  ``run_program`` takes the quiet machine
at the end of it into the call's ``RunStore`` and later runs with the
same warm-up restore it (``Machine.capture_warmup`` /
``restore_warmup``) instead of simulating it again.  Here:

* a run that restores its warm-up equals the full simulation, field
  for field, under every design at plain and adversary points, and
  dispatches all of its events but the warm-up's;
* a warm-up whose boundary is not quiet is stored as not restorable,
  and its runs simulate in full and still match; a thread already in
  its body, or a warm-up that stored, makes a boundary that is not;
* a verify campaign restores warm-ups and takes each at most once;
* nothing is stored or restored under a sanitizer or an injector.
"""

import repro.verify.engine as engine
from repro.common.params import FenceDesign
from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.synth import SynthConfig, run_synthesis
from repro.synth.programs import NAMED_PROGRAMS, program_for_spec, sb
from repro.verify.engine import VerifyConfig, run_verification
from repro.verify.generator import LitmusProgram, generate_program
from repro.verify.oracles import RunStore, run_program
from repro.verify.perturb import (
    SchedulePoint,
    adversary_points,
    schedule_points,
)
from tests.support import tiny_params

#: plain points of a short sweep and the unjittered adversary points
POINTS = tuple(schedule_points(1, 3)) + tuple(
    p for p in adversary_points(1, 6) if not p.jittered)

PROGRAMS = tuple(program_for_spec(name) for name in NAMED_PROGRAMS) + tuple(
    generate_program(seed) for seed in range(1, 7))


def _fields(run):
    return (run.completed, run.cycles, run.deadlock, run.error, run.scv,
            run.stats.to_dict(), run.events, run.observed, run.final)


def _standing(machine):
    """What a machine holds at the warm-up boundary, as plain values
    (not ``executed``: a restored queue counts only what it dispatches)."""
    queue = machine.queue
    return (
        queue.now, queue._seq,
        sorted((ev[0], ev[1], ev[3]) for ev in queue._heap
               if ev[2] is not None),
        machine.stats.to_dict(),
        [(core.ops_committed, core.thread._ops) for core in machine.cores],
        [[(i, list(s.items())) for i, s in enumerate(l1.cache.sets) if s]
         for l1 in machine.l1s],
        [dict(l1._grants) for l1 in machine.l1s],
        [{line: (e.owner, sorted(e.sharers), e.grant)
          for line, e in bank.entries.items()} for bank in machine.banks],
        [list(bank._l2) for bank in machine.banks],
        list(machine.recorder.events),
    )


def test_a_restored_warmup_runs_as_the_simulated_one(monkeypatch):
    # the machine a restore starts from is the one the capture stood
    # at, and the run it then makes is the simulated one, dispatching
    # all but the warm-up's events
    taken, started, executed = {}, [], []
    take, restore = Machine._take_warmup, Machine.restore_warmup
    dispose = Machine.dispose

    def spy_take(machine, *args):
        state = take(machine, *args)
        taken[id(state)] = (_standing(machine), machine.queue.executed)
        return state

    def spy_restore(machine, state):
        restore(machine, state)
        run = machine.queue.run

        def first_run(until=None):
            started.append((state, _standing(machine)))
            assert machine.queue.executed == 0
            machine.queue.run = run
            return run(until)

        machine.queue.run = first_run

    def spy_dispose(machine):
        executed.append(machine.queue.executed)
        dispose(machine)

    monkeypatch.setattr(Machine, "_take_warmup", spy_take)
    monkeypatch.setattr(Machine, "restore_warmup", spy_restore)
    monkeypatch.setattr(Machine, "dispose", spy_dispose)
    store = RunStore()
    runs = 0
    for program in PROGRAMS:
        for point in POINTS:
            for design in FenceDesign:
                full = run_program(program, design, point)
                restores = len(started)
                assert _fields(run_program(program, design, point,
                                           warmups=store)) == _fields(full)
                full_events, events = executed[-2:]
                if len(started) > restores:
                    warmup_events = taken[id(started[-1][0])][1]
                    assert events == full_events - warmup_events > 0
                else:
                    assert events == full_events
                runs += 1
    # one capture per warm-up, every other run restored
    assert None not in store.warm.values()
    assert store.restored == runs - len(store.warm) == len(started) > 0
    for state, standing in started:
        assert standing == taken[id(state)][0]


def test_a_boundary_that_is_not_quiet_is_simulated_in_full():
    # 24 cold lines warm for longer than the 5k-cycle verify watchdog
    # period: the check has fired by the boundary, so its state is not
    # the fresh machine's and the warm-up cannot be restored
    program = LitmusProgram(
        name="long-warmup", shape="sb", num_vars=24,
        threads=((ops.Store(0, 1), ops.Load(1)),
                 (ops.Store(1, 1), ops.Load(0))),
        warm_vars=tuple(range(24)))
    point = SchedulePoint()
    store = RunStore()
    for design in FenceDesign:
        full = run_program(program, design, point)
        assert _fields(run_program(program, design, point,
                                   warmups=store)) == _fields(full)
    assert list(store.warm.values()) == [None]
    assert store.restored == 0


def _boundary(first, cold=3):
    """Run thread 0 = *first* beside a thread that warms *cold* cold
    lines; return the state the capture kept (or None)."""
    machine = Machine(tiny_params(track_dependences=True), seed=1)
    warmed = machine.capture_warmup()
    words = [machine.alloc.alloc_words_padded(1)[0] for _ in range(4)]

    def slow(ctx):
        results = []
        for word in words[1:1 + cold]:
            results.append((yield ops.Load(word)))
        warmed(ctx.tid, results)
        yield ops.Compute(4)

    machine.spawn(lambda ctx: first(ctx, warmed, words[0]))
    machine.spawn(slow)
    assert machine.run().completed
    return machine.warm_state


def test_the_quiet_rule_refuses_a_thread_past_its_warmup_or_a_store():
    def quiet(ctx, warmed, word):
        warmed(ctx.tid, [(yield ops.Load(word))])
        yield ops.Compute(8000)

    def past(ctx, warmed, word):
        # in its body, still computing, when the other thread warms
        warmed(ctx.tid, [])
        yield ops.Compute(4)
        yield ops.Compute(8000)

    def wrote(ctx, warmed, word):
        # at its boundary, but its warm-up stored
        yield ops.Store(word, 1)
        warmed(ctx.tid, [None])
        yield ops.Compute(8000)

    assert _boundary(quiet) is not None
    assert _boundary(past) is None
    assert _boundary(wrote) is None  # merged: the image took a write
    assert _boundary(wrote, cold=0) is None  # still in flight


class _Once(dict):
    def __setitem__(self, key, value):
        assert key not in self, "a warm-up was taken twice"
        super().__setitem__(key, value)


def test_a_campaign_takes_each_warmup_once_and_restores_the_rest(
        monkeypatch):
    stores, taken = [], []

    class Store(RunStore):
        def __init__(self):
            super().__init__()
            self.warm = _Once()
            stores.append(self)

    capture = Machine.capture_warmup

    def counting(machine):
        taken.append(machine)
        return capture(machine)

    monkeypatch.setattr(engine, "RunStore", Store)
    monkeypatch.setattr(Machine, "capture_warmup", counting)
    report = run_verification(VerifyConfig(budget=250, seed=1),
                              out_path=None)
    store, = stores
    assert len(taken) == len(store.warm)
    assert report.warmups_restored == store.restored > 0
    assert report.simulated_runs > store.restored
    assert "warmups_restored" not in report.to_dict()
    assert f"warm-ups restored: {store.restored}" in report.summary()


def test_nothing_is_restored_under_a_sanitizer_or_an_injector():
    store = RunStore()
    jittered = next(p for p in adversary_points(1, 6) if p.jittered)
    for design in (FenceDesign.S_PLUS, FenceDesign.W_PLUS):
        run_program(sb(), design, jittered, faults=jittered.injector(),
                    warmups=store)
        run_program(sb(), design, SchedulePoint(), sanitize="strict",
                    warmups=store)
    assert store.warm == {} and store.restored == 0
    # the same synthesis restores warm-ups unsanitized, none sanitized
    restored = {}
    for sanitize in ("off", "strict"):
        report = run_synthesis(SynthConfig(program="sb", num_points=4,
                                           sanitize=sanitize))
        assert report.ok and "warmups_restored" not in report.to_dict()
        restored[sanitize] = report.warmups_restored
    assert restored["off"] > 0 and restored["strict"] == 0
