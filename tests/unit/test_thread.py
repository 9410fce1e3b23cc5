"""Unit tests for replayable threads (the W+ checkpoint machinery)."""

import pytest

from repro.common.errors import ThreadReplayError
from repro.core import isa as ops
from repro.core.thread import SimThread, ThreadContext


def ctx(seed=5, tid=0):
    return ThreadContext(tid=tid, num_threads=1, seed=seed)


def test_next_op_sequence_and_results():
    def fn(c):
        a = yield ops.Load(0x10)
        b = yield ops.Load(0x20)
        yield ops.Store(0x30, a + b)

    t = SimThread(fn, ctx())
    assert t.next_op(None) == ops.Load(0x10)
    assert t.next_op(3) == ops.Load(0x20)
    assert t.next_op(4) == ops.Store(0x30, 7)
    assert t.next_op(None) is None
    assert t.finished


def test_rollback_replays_prefix_and_reexecutes_suffix():
    trace = []

    def fn(c):
        a = yield ops.Load(0x10)
        trace.append(("pre", a))
        yield ops.Fence()
        b = yield ops.Load(0x20)
        trace.append(("post", b))

    t = SimThread(fn, ctx())
    t.next_op(None)          # yields Load(0x10)
    t.next_op(11)            # commits a=11, yields Fence
    token = t.checkpoint()
    t.next_op(None)          # commits fence, yields Load(0x20)
    t.next_op(99)            # commits b=99 -> thread would finish next
    assert trace == [("pre", 11), ("post", 99)]

    t.rollback(token)
    # the prefix replayed: "pre" is re-appended with the same value,
    # then live execution resumes after the fence
    assert trace[-1] == ("pre", 11)
    op = t.next_op(None)     # fence result, yields Load(0x20) again
    assert op == ops.Load(0x20)
    t.next_op(42)
    assert trace[-1] == ("post", 42)
    assert t.rollbacks == 1


def test_rollback_resets_rng_for_determinism():
    draws = []

    def fn(c):
        x = c.rng.randrange(1000)
        draws.append(x)
        yield ops.Load(0x10)
        yield ops.Fence()
        y = c.rng.randrange(1000)
        draws.append(y)
        yield ops.Load(0x20)

    t = SimThread(fn, ctx(seed=77))
    t.next_op(None)
    t.next_op(1)
    token = t.checkpoint()
    t.next_op(None)
    first_draws = list(draws)
    t.rollback(token)
    t.next_op(None)
    # both draws re-played identically
    assert draws[2] == first_draws[0]
    assert draws[3] == first_draws[1]


def test_replay_divergence_detected():
    flip = []

    def fn(c):
        # nondeterministic: consults state outside (seed, results)
        if flip:
            yield ops.Load(0xBAD)
        else:
            yield ops.Load(0x10)
        yield ops.Fence()
        yield ops.Load(0x20)

    t = SimThread(fn, ctx())
    t.next_op(None)
    t.next_op(1)
    token = t.checkpoint()
    flip.append(True)
    with pytest.raises(ThreadReplayError):
        t.rollback(token)


def test_rollback_past_end_rejected():
    def fn(c):
        yield ops.Load(0x10)

    t = SimThread(fn, ctx())
    with pytest.raises(ThreadReplayError):
        t.rollback(5)


def test_rollback_of_finished_thread_revives_it():
    def fn(c):
        yield ops.Store(0x10, 1)
        yield ops.Fence()
        yield ops.Load(0x20)

    t = SimThread(fn, ctx())
    t.next_op(None)
    t.next_op(None)
    token = t.checkpoint()
    t.next_op(None)
    assert t.next_op(7) is None and t.finished
    t.rollback(token)
    assert not t.finished
    assert t.next_op(None) == ops.Load(0x20)


# --- the lazily built RNG --------------------------------------------------


@pytest.fixture
def rng_constructions(monkeypatch):
    """Counts ``random.Random(...)`` constructions made through
    ``repro.core.thread`` (the only module that builds thread RNGs)."""
    import random

    import repro.core.thread as thread_mod

    built = []

    class CountingRandom(random.Random):
        def __init__(self, seed=None):
            built.append(seed)
            super().__init__(seed)

    class _Random:  # stands in for the ``random`` module global
        Random = CountingRandom

    monkeypatch.setattr(thread_mod, "random", _Random)
    return built


def test_thread_that_never_draws_builds_no_rng(rng_constructions):
    def fn(c):
        yield ops.Store(0x10, 1)
        yield ops.Fence()
        yield ops.Load(0x20)

    t = SimThread(fn, ctx(seed=9))
    t.next_op(None)
    t.next_op(None)
    token = t.checkpoint()
    t.next_op(None)
    t.rollback(token)
    assert t.next_op(None) == ops.Load(0x20)
    assert rng_constructions == []
    # the first read builds it, from the thread's seed, once
    assert t.ctx.rng.randrange(1000) == ctx(seed=9).rng.randrange(1000)
    assert t.ctx.rng is t.ctx.rng
    assert rng_constructions == [9, 9]  # this thread's + the reference's


def test_litmus_run_builds_no_rng(rng_constructions):
    from repro.common.params import FenceDesign
    from repro.synth.programs import program_for_spec
    from repro.verify.oracles import run_program

    run = run_program(program_for_spec("sb"), FenceDesign.W_PLUS)
    assert run.completed and not run.scv_found
    assert rng_constructions == []


def test_first_draw_after_rollback_starts_from_seed():
    """A thread that draws only *after* its checkpoint: the replayed
    generator's first draw must open a fresh ``Random(seed)`` stream,
    not continue the one the discarded execution had advanced."""
    draws = []

    def fn(c):
        yield ops.Load(0x10)
        yield ops.Fence()
        draws.append([c.rng.randrange(1000) for _ in range(3)])
        yield ops.Load(0x20)
        draws.append([c.rng.randrange(1000) for _ in range(3)])
        yield ops.Load(0x30)

    t = SimThread(fn, ctx(seed=41))
    t.next_op(None)
    t.next_op(1)
    token = t.checkpoint()
    t.next_op(None)
    t.next_op(2)      # both draw sites passed: the stream is 6 deep
    t.rollback(token)  # ...and is dropped unbuilt-again here
    assert "rng" not in vars(t.ctx)
    t.next_op(None)
    t.next_op(2)
    reference = ctx(seed=41).rng
    expected = [[reference.randrange(1000) for _ in range(3)]
                for _ in range(2)]
    assert draws == expected + expected


def test_rng_is_one_object_between_resets_and_a_new_one_after():
    c = ctx(seed=3)
    assert "rng" not in vars(c)
    first = c.rng
    assert c.rng is first and vars(c)["rng"] is first  # instance-dict hit
    first.random()
    c._reset_rng()
    assert "rng" not in vars(c)
    second = c.rng
    assert second is not first and c.rng is second
    assert second.random() == ctx(seed=3).rng.random()
    c._reset_rng()
    c._reset_rng()  # resetting an unbuilt rng is a no-op
