"""Unit tests for statistics accounting."""

from repro.common.stats import MachineStats


def test_breakdown_accumulates_per_core():
    s = MachineStats(2)
    s.add_busy(0, 10)
    s.add_fence_stall(0, 5)
    s.add_other_stall(1, 3)
    assert s.breakdown[0].total == 15
    assert s.breakdown[1].total == 3
    t = s.total_breakdown()
    assert t == {"busy": 10, "fence_stall": 5, "other_stall": 3}
    assert t["fence_stall"] / sum(t.values()) == 5 / 18


def test_per_kilo_inst_rates():
    s = MachineStats(2)
    s.instructions[0] = 1500
    s.instructions[1] = 500
    s.sf_executed[0] = 4
    s.wf_executed[1] = 6
    assert s.sf_per_kilo_inst == 2.0
    assert s.wf_per_kilo_inst == 3.0


def test_rates_safe_with_zero_denominators():
    s = MachineStats(1)
    assert s.sf_per_kilo_inst == 0.0
    assert s.bounces_per_wf == 0.0
    assert s.retries_per_bounced_write == 0.0
    assert s.recoveries_per_wf == 0.0
    assert s.traffic_increase_pct == 0.0
    assert s.mean_bs_lines == 0.0


def test_bounce_and_retry_rates():
    s = MachineStats(1)
    s.wf_executed[0] = 10
    s.bounced_writes = 2
    s.write_retries = 6
    assert s.bounces_per_wf == 0.2
    assert s.retries_per_bounced_write == 3.0


def test_traffic_increase():
    s = MachineStats(1)
    s.network_bytes = 1100
    s.retry_bytes = 100
    assert abs(s.traffic_increase_pct - 10.0) < 1e-12


def test_bs_occupancy_mean():
    s = MachineStats(1)
    for v in (2, 4, 6):
        s.sample_bs_occupancy(v)
    assert s.mean_bs_lines == 4.0


def test_summary_keys_present():
    s = MachineStats(1)
    summary = s.summary()
    for key in ("cycles", "busy", "fence_stall", "other_stall",
                "sf_per_ki", "wf_per_ki", "bs_lines", "bounces_per_wf",
                "recoveries_per_wf", "txn_commits", "tasks_executed"):
        assert key in summary


def test_bs_sampling_is_bounded_but_aggregates_stay_exact():
    """Long runs must not grow bs_occupancy_samples without limit, and
    mean/max must come from exact running aggregates, not the thinned
    retained list."""
    from repro.common.stats import BS_SAMPLE_CAP

    s = MachineStats(1)
    n = 3 * BS_SAMPLE_CAP
    values = [i % 7 for i in range(n)]
    for v in values:
        s.sample_bs_occupancy(v)
    assert len(s.bs_occupancy_samples) < BS_SAMPLE_CAP
    assert s.bs_occupancy_count == n
    assert s.bs_occupancy_sum == sum(values)
    assert s.mean_bs_lines == sum(values) / n
    assert s.bs_occupancy_max == 6
    # the retained list is a uniformly-strided subsample of the stream
    assert set(s.bs_occupancy_samples) <= set(values)


def test_bs_sampling_mean_not_derived_from_retained_list():
    from repro.common.stats import BS_SAMPLE_CAP

    s = MachineStats(1)
    # first half all zeros, second half all tens: pairwise thinning
    # skews the retained list, the running mean must not move
    n = 2 * BS_SAMPLE_CAP
    for i in range(n):
        s.sample_bs_occupancy(0 if i < n // 2 else 10)
    assert s.mean_bs_lines == 5.0
    assert s.bs_occupancy_max == 10


def test_bs_sampling_below_cap_retains_everything():
    s = MachineStats(1)
    for v in (1, 2, 3):
        s.sample_bs_occupancy(v)
    assert s.bs_occupancy_samples == [1, 2, 3]
    assert s.mean_bs_lines == 2.0
