"""The design oracles: SC with fences, SCV without, recovery soundness."""

import pytest

from repro.common.params import FenceDesign
from repro.common.stats import MachineStats
from repro.core import isa as ops
from repro.synth.programs import sb
from repro.verify.generator import LitmusProgram, generate_program
from repro.verify.oracles import (
    PAPER_DESIGNS,
    ProgramRun,
    check_invariants,
    run_program,
)
from repro.verify.perturb import (
    SchedulePoint,
    adversary_points,
    schedule_points,
)


def _sb2(seed=0):
    """A deterministic 2-thread store-buffering program."""
    for s in range(seed, seed + 50):
        prog = generate_program(s, shape="sb")
        if prog.num_threads == 2:
            return prog
    raise AssertionError("no 2-thread sb program in 50 seeds")


@pytest.mark.parametrize("design", PAPER_DESIGNS)
def test_fenced_sb_is_sc_under_every_design(design):
    run = run_program(_sb2(), design)
    assert check_invariants(run) == []
    assert run.completed
    assert not run.scv_found


def test_stripped_sb_violates_sc():
    run = run_program(_sb2().stripped(), FenceDesign.S_PLUS)
    assert run.completed
    assert run.scv_found
    # an SCV on a fence-stripped program is a finding, not a violation
    assert check_invariants(run) == []


def test_wplus_recovery_preserves_sc():
    """W+ executes every fence as a wf; colliding groups roll back.
    Whatever the recovery count, the surviving execution must be SC."""
    recovered = False
    for seed in range(30):
        prog = generate_program(seed, shape="sb")
        run = run_program(prog, FenceDesign.W_PLUS)
        assert check_invariants(run) == []
        assert not run.scv_found
        recovered = recovered or run.recoveries > 0
    assert recovered, "no seed exercised the W+ recovery path"


def test_naive_wplus_deadlock_is_classified():
    """Recovery disabled reproduces the Fig. 3a deadlock; the oracle
    records it rather than crashing the explorer."""
    deadlocked = False
    for seed in range(30):
        prog = generate_program(seed, shape="sb")
        run = run_program(prog, FenceDesign.W_PLUS, params_overrides={
            "wplus_recovery_enabled": False})
        if run.deadlock is not None:
            deadlocked = True
            assert "blocked cores" in run.deadlock
            assert "deadlock" in " ".join(check_invariants(run))
            break
    assert deadlocked, "no seed deadlocked the naive design"


def test_observed_values_recorded():
    prog = _sb2()
    run = run_program(prog, FenceDesign.S_PLUS)
    # every Load in the program reported a value
    expected = {
        (tid, idx)
        for tid, body in enumerate(prog.threads)
        for idx, op in enumerate(body)
        if type(op).__name__ == "Load"
    }
    assert set(run.observed) == expected


def test_schedule_point_changes_timing():
    prog = _sb2()
    base = run_program(prog, FenceDesign.S_PLUS, SchedulePoint())
    slow = run_program(
        prog, FenceDesign.S_PLUS, SchedulePoint(mesh_hop_cycles=11)
    )
    assert slow.cycles > base.cycles


def test_check_invariants_flags_livelock():
    run = ProgramRun(program=_sb2(), design=FenceDesign.S_PLUS,
                     point=SchedulePoint(), completed=False, cycles=999)
    assert any("livelock" in v for v in check_invariants(run))


def test_check_invariants_flags_scv_under_fences():
    run = ProgramRun(program=_sb2(), design=FenceDesign.WS_PLUS,
                     point=SchedulePoint(), completed=True,
                     scv=[(0, 1), (1, 0)])
    assert any("scv-under-fences" in v for v in check_invariants(run))


def test_check_invariants_flags_unsound_recovery():
    stats = MachineStats(2)
    stats.wplus_recoveries = 2
    run = ProgramRun(program=_sb2().stripped(),
                     design=FenceDesign.W_PLUS,
                     point=SchedulePoint(), completed=True,
                     scv=[(0, 1), (1, 0)], stats=stats)
    assert any("recovery-left-non-sc" in v for v in check_invariants(run))


# ---------------------------------------------------------------------------
# regressions: two W+ SC holes the verifier found (both random-shape)
# ---------------------------------------------------------------------------

#: campaign seed 4, program 2: the critical thread's post-wf load was
#: satisfied by write-buffer forwarding and never entered the BS, so
#: the conflicting remote store never bounced and SC silently broke.
_FWD_BS_POINT = SchedulePoint(seed=247515, mesh_hop_cycles=5,
                              write_buffer_entries=2, bs_entries=32,
                              bounce_retry_cycles=20)

#: campaign seed 5, program: an invalidation arrived between a post-wf
#: load reading its line and the BS insertion becoming visible — the
#: INV was acked, the load kept the stale value, no bounce happened.
_REPLAY_POINT = SchedulePoint(seed=1, mesh_hop_cycles=5,
                              write_buffer_entries=64, bs_entries=32,
                              bounce_retry_cycles=20)


def _campaign_program(campaign_seed, name, shape=None):
    for idx in range(40):
        prog = generate_program(campaign_seed * 7919 + idx, shape=shape)
        if prog.name == name:
            return prog
    raise AssertionError(f"program {name} not reachable from seed")


def test_forwarded_post_wf_load_enters_the_bs():
    prog = _campaign_program(4, "rand4v2-s31677", shape="random")
    run = run_program(prog, FenceDesign.W_PLUS, _FWD_BS_POINT)
    assert check_invariants(run) == []
    assert not run.scv_found


def test_inv_racing_bs_insertion_replays_the_load():
    prog = _campaign_program(5, "rand3v4-s39601")
    run = run_program(prog, FenceDesign.W_PLUS, _REPLAY_POINT)
    assert check_invariants(run) == []
    assert not run.scv_found


# ----------------------------------------------------------------------
# final memory: an outcome is the loads and what memory holds at the end
# ----------------------------------------------------------------------

@pytest.mark.parametrize("design", list(FenceDesign))
def test_sb_ends_with_every_store_in_memory(design):
    """v0/v1 are the flags, v2/v3 the two threads' cold pads (7, 9)."""
    run = run_program(sb(), design)
    assert run.completed
    assert run.final == (1, 1, 7, 9)


def _two_plus_two_w() -> LitmusProgram:
    """2+2W: [St v0=1; St v1=2] || [St v1=1; St v0=2], no fence."""
    return LitmusProgram(
        name="2+2w", shape="2+2w", num_vars=2,
        threads=((ops.Store(0, 1), ops.Store(1, 2)),
                 (ops.Store(1, 1), ops.Store(0, 2))),
        warm_vars=(0, 1),
    )


@pytest.mark.parametrize("design", list(FenceDesign))
def test_2plus2w_never_ends_with_both_first_stores_last(design):
    """TSO keeps each thread's stores in order, so final memory (1, 1)
    — both threads' first store performed after the other's second —
    would be a store-order bug that no load can observe."""
    points = schedule_points(1, 6) + adversary_points(1, 6)
    finals = set()
    for point in points:
        run = run_program(_two_plus_two_w(), design, point)
        assert run.completed, point
        assert run.final != (1, 1), point
        finals.add(run.final)
    assert finals <= {(1, 2), (2, 1), (2, 2)}
