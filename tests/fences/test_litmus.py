"""Litmus-test matrix across all five fence designs.

The ground truth (paper §2.1/Fig. 1): with fences placed per the
design's contract, the SC-forbidden outcomes must never appear; without
fences TSO's store→load reordering produces them.  The SCV checker
independently validates every execution's dependence graph.  Every
kernel is a named :mod:`repro.synth.programs` program run by
``run_program``.
"""

import pytest

from repro.common.params import FenceDesign, FenceRole
from repro.synth.programs import sb, sb3, sharing
from repro.verify.oracles import check_invariants

from tests.support import delayed_mp, loads_of, outcome, run_litmus

ALL = tuple(FenceDesign)
ASYM = (FenceRole.CRITICAL, FenceRole.STANDARD)
BOTH_CRITICAL = (FenceRole.CRITICAL, FenceRole.CRITICAL)
NO_RECOVERY = {"wplus_recovery_enabled": False}


# ---------------------------------------------------------------------------
# store buffering (Dekker), Fig. 1d
# ---------------------------------------------------------------------------


def test_sb_without_fences_violates_sc():
    run = run_litmus(sb().stripped(), FenceDesign.S_PLUS)
    assert outcome(run) == (0, 0)  # the forbidden outcome under SC
    assert run.scv_found


@pytest.mark.parametrize("design", ALL)
def test_sb_with_fences_preserves_sc(design):
    run = run_litmus(sb(ASYM), design)
    assert outcome(run) != (0, 0)
    assert not run.scv_found


@pytest.mark.parametrize("design", ALL)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sb_seed_sweep(design, seed):
    run = run_litmus(sb(ASYM, pads=2), design, seed=seed)
    assert outcome(run) != (0, 0)
    assert not run.scv_found


def test_sb_wplus_handles_wf_only_group():
    """W+ supports all-wf groups via deadlock recovery (§3.3.3)."""
    run = run_litmus(sb(BOTH_CRITICAL), FenceDesign.W_PLUS)
    assert outcome(run) != (0, 0)
    assert not run.scv_found
    # the collision forced at least one rollback
    assert run.recoveries >= 1


def test_sb_ws_plus_misused_may_violate_sc_silently():
    """The paper's §3.3.1 caveat: WS+ assumes at most one wf per group.
    Two colliding wfs get Order-promoted and an SCV slips through
    silently — the documented failure mode, reproduced exactly."""
    run = run_litmus(sb(BOTH_CRITICAL), FenceDesign.WS_PLUS)
    assert outcome(run) == (0, 0)
    assert run.stats.order_ops >= 1
    assert run.scv_found


def test_sb_sw_plus_misused_deadlocks_not_violates():
    """SW+ needs >= 1 sf in the group for forward progress (§3.3.2):
    with two wfs the true-sharing COs bounce forever.  The machine
    deadlocks — but SC is never violated."""
    run = run_litmus(sb(BOTH_CRITICAL), FenceDesign.SW_PLUS)
    assert run.deadlock is not None
    assert not run.scv_found


def test_sb_wee_handles_wf_only_group_via_grt():
    """WeeFence's GRT/RemotePS prevents both the SCV and the deadlock
    for colliding fences confined to one directory module."""
    run = run_litmus(sb(BOTH_CRITICAL), FenceDesign.WEE)
    assert outcome(run) != (0, 0)
    assert not run.scv_found
    assert run.recoveries == 0


def test_naive_wf_only_design_deadlocks():
    """Fig. 3a: weak fences without global state or recovery deadlock
    while preventing the SCV."""
    run = run_litmus(sb(BOTH_CRITICAL), FenceDesign.W_PLUS,
                     params_overrides=NO_RECOVERY)
    assert run.deadlock is not None and "blocked cores" in run.deadlock
    assert not run.scv_found


# ---------------------------------------------------------------------------
# three-thread cycle, Fig. 1e/1f and Fig. 3c
# ---------------------------------------------------------------------------


def test_three_thread_cycle_without_fences():
    run = run_litmus(sb3().stripped(), FenceDesign.S_PLUS)
    # TSO allows the forbidden all-zero outcome without fences
    assert outcome(run) == (0, 0, 0)
    assert run.scv_found


@pytest.mark.parametrize("design", ALL)
def test_three_thread_cycle_with_fences(design):
    roles = (FenceRole.CRITICAL, FenceRole.CRITICAL, FenceRole.STANDARD)
    if design is FenceDesign.WS_PLUS:
        # WS+ groups may contain at most one wf
        roles = (FenceRole.CRITICAL, FenceRole.STANDARD, FenceRole.STANDARD)
    run = run_litmus(sb3(roles), design)
    assert outcome(run) != (0, 0, 0)
    assert not run.scv_found


# ---------------------------------------------------------------------------
# false/true sharing between unrelated wfs, Fig. 4b/4c
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ALL)
def test_false_sharing_between_unrelated_wfs_progresses(design):
    """Fig. 4b: a false-sharing 'cycle' between unrelated wfs must not
    hang: WS+ orders it, SW+ completes the CO (false sharing), W+
    recovers, Wee stalls via GRT/confinement; the sf-only designs
    just drain."""
    run = run_litmus(sharing(true_sharing=False), design)
    assert run.completed
    # no SCV is possible here (the paper: "interference cannot create
    # an SCV"); the checker agrees
    assert not run.scv_found
    assert check_invariants(run) == []


@pytest.mark.parametrize("design", ALL)
def test_true_sharing_interference_progresses(design):
    run = run_litmus(sharing(true_sharing=True), design)
    assert run.completed
    assert not run.scv_found
    assert check_invariants(run) == []


# ---------------------------------------------------------------------------
# message passing (TSO-ordered even without fences); the consumer waits
# before it reads, so it observes the publication
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ALL)
def test_message_passing_all_designs(design):
    run = run_litmus(delayed_mp(), design)
    # the consumer saw the flag set, so it must read the published data
    assert loads_of(run, 1) == [1, 42]


def test_message_passing_without_fences_still_works_on_tso():
    run = run_litmus(delayed_mp().stripped(), FenceDesign.W_PLUS)
    assert loads_of(run, 1) == [1, 42]
