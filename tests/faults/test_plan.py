"""FaultPlan construction, the scenario catalog, serialization."""

import pytest

from repro.faults.plan import (
    DROP_CYCLES,
    FaultPlan,
    LEGAL_SCENARIOS,
    SCENARIOS,
    make_plan,
)


def test_every_scenario_builds_a_plan():
    for name in SCENARIOS:
        plan = make_plan(name, 7)
        assert plan.scenario == name
        assert plan.seed == 7


def test_unknown_scenario_raises_with_choices():
    with pytest.raises(ValueError, match="unknown fault scenario"):
        make_plan("not-a-scenario", 1)


def test_legal_scenarios_exclude_the_broken_one():
    assert "illegal_drop" not in LEGAL_SCENARIOS
    assert set(LEGAL_SCENARIOS) == {
        name for name, over in SCENARIOS.items()
        if over.get("legal", True)
    }
    # CI sweeps must have something to sweep
    assert len(LEGAL_SCENARIOS) >= 5


def test_only_the_illegal_scenario_may_drop_messages():
    for name in SCENARIOS:
        plan = make_plan(name, 1)
        if plan.legal:
            assert plan.noc_drop_rate == 0.0, name
        else:
            assert plan.noc_drop_rate > 0.0, name


def test_legal_knobs_are_budget_or_magnitude_bounded():
    for name in LEGAL_SCENARIOS:
        plan = make_plan(name, 1)
        if plan.noc_delay_rate:
            assert plan.noc_delay_max_cycles > 0, name
        if plan.dir_nack_rate:
            assert plan.dir_nack_budget > 0, name
        if plan.bs_amp_rate:
            assert plan.bs_amp_budget > 0, name
        if plan.retry_backoff_base:
            assert plan.retry_backoff_cap >= plan.retry_backoff_base, name
        assert plan.wplus_timeout_scale > 0, name


def test_plan_round_trips_through_dict():
    for name in SCENARIOS:
        plan = make_plan(name, 42)
        assert FaultPlan(**plan.to_dict()) == plan


def test_drop_cycles_exceed_any_verify_horizon():
    from repro.verify.perturb import VERIFY_MAX_CYCLES

    assert DROP_CYCLES > 100 * VERIFY_MAX_CYCLES
