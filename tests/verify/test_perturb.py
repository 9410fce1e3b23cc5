"""Schedule perturbation: reproducible sweeps, parameter plumbing."""

from repro.common.params import FenceDesign
from repro.verify.perturb import (
    DEFAULT_POINT,
    VERIFY_MAX_CYCLES,
    VERIFY_WATCHDOG_INTERVAL,
    SchedulePoint,
    schedule_points,
)


def test_points_are_reproducible():
    assert schedule_points(7, 10) == schedule_points(7, 10)
    assert schedule_points(7, 10) != schedule_points(8, 10)


def test_default_timing_explored_first():
    points = schedule_points(1, 4)
    assert points[0] == DEFAULT_POINT
    assert len(points) == 4
    # the sweep actually moves the knobs
    assert len({p.seed for p in points}) > 1


def test_point_builds_interleaving_exact_params():
    point = SchedulePoint(seed=3, mesh_hop_cycles=11,
                          write_buffer_entries=8, bs_entries=4,
                          bounce_retry_cycles=45)
    params = point.params(FenceDesign.W_PLUS, num_cores=3)
    assert params.fence_design is FenceDesign.W_PLUS
    assert params.num_cores == params.num_banks == 3
    assert params.batch_cycles == 0          # interleaving-exact
    assert params.track_dependences          # SCV checker armed
    assert params.mesh_hop_cycles == 11
    assert params.write_buffer_entries == 8
    assert params.bs_entries == 4
    assert params.bounce_retry_cycles == 45
    assert params.watchdog_interval == VERIFY_WATCHDOG_INTERVAL
    assert params.max_cycles == VERIFY_MAX_CYCLES
    assert params.wplus_recovery_enabled


def test_point_can_disable_recovery():
    params = SchedulePoint().params(FenceDesign.W_PLUS, 2, recovery=False)
    assert not params.wplus_recovery_enabled


def test_point_params_are_built_once_per_combination():
    from dataclasses import replace

    from repro.common.params import MachineParams

    a = SchedulePoint(seed=3, mesh_hop_cycles=11)
    b = SchedulePoint(seed=99, mesh_hop_cycles=11)  # seed is not a knob
    params = a.params(FenceDesign.WS_PLUS, 2)
    assert b.params(FenceDesign.WS_PLUS, 2) is params
    # every argument is part of the key
    assert a.params(FenceDesign.SW_PLUS, 2) != params
    assert a.params(FenceDesign.WS_PLUS, 3) != params
    assert a.params(FenceDesign.WS_PLUS, 2, recovery=False) != params
    assert SchedulePoint(mesh_hop_cycles=2).params(
        FenceDesign.WS_PLUS, 2) != params
    # and the shared instance is what the step-by-step build gives
    stepwise = replace(
        MachineParams(
            num_cores=2, num_banks=2, batch_cycles=0,
            track_dependences=True, mesh_hop_cycles=11,
            watchdog_interval=VERIFY_WATCHDOG_INTERVAL,
            max_cycles=VERIFY_MAX_CYCLES,
        ).with_design(FenceDesign.WS_PLUS),
        wplus_recovery_enabled=True,
    )
    assert params == stepwise


# ----------------------------------------------------------------------
# adversary points (fence synthesis)
# ----------------------------------------------------------------------

from repro.verify.perturb import DEFAULT_POINT, adversary_points  # noqa: E402


def test_adversary_points_reproducible_and_prefix_stable():
    assert adversary_points(5, 8) == adversary_points(5, 8)
    assert adversary_points(5, 16)[:8] == adversary_points(5, 8)


def test_adversary_points_lead_with_default_and_mix_jitter():
    points = adversary_points(1, 12)
    assert points[0] == DEFAULT_POINT
    armed = [p for p in points if p.jittered]
    plain = [p for p in points[1:] if not p.jittered]
    assert armed and plain  # both kinds of adversary present


def test_unarmed_point_has_no_injector():
    assert not DEFAULT_POINT.jittered
    assert DEFAULT_POINT.injector() is None


def test_armed_point_builds_fresh_injectors():
    armed = next(p for p in adversary_points(1, 12) if p.jittered)
    first, second = armed.injector(), armed.injector()
    # injectors are single-run objects: each call must build a new one
    assert first is not None and first is not second
    assert first.plan.noc_delay_rate == armed.noc_jitter_rate
    assert first.plan.noc_delay_max_cycles == armed.noc_jitter_max_cycles


def test_plain_verify_points_never_jittered():
    from repro.verify.perturb import schedule_points

    assert all(not p.jittered for p in schedule_points(3, 20))
