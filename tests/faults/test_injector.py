"""FaultInjector: decision determinism, budgets, decision-map replay."""

from repro.faults.injector import (
    SITE_BS_AMP,
    SITE_DIR_NACK,
    SITE_NOC_DELAY,
    FaultInjector,
    describe,
    from_entries,
)
from repro.faults.plan import DROP_CYCLES, FaultPlan, make_plan


def _drive(inj, n=200):
    """Consult every hook site *n* times with varied arguments."""
    for i in range(n):
        inj.noc_perturb(i % 4, (i + 1) % 4, "GetX", 64 * (i % 3))
        inj.dir_nack(i % 2, 64 * (i % 5), i % 4, "Order")
        inj.bs_amplify(i % 4, 64 * (i % 3))


def test_same_seed_same_decisions():
    a = FaultInjector(make_plan("chaos_combo", 9))
    b = FaultInjector(make_plan("chaos_combo", 9))
    _drive(a)
    _drive(b)
    assert a.decisions == b.decisions
    assert a.decisions  # the scenario actually fired something
    assert a.counts == b.counts


def test_different_seeds_diverge():
    a = FaultInjector(make_plan("chaos_combo", 1))
    b = FaultInjector(make_plan("chaos_combo", 2))
    _drive(a)
    _drive(b)
    assert a.decisions != b.decisions


def test_decisions_ignore_call_arguments():
    """Hash mode draws from (seed, site, n): the same consultation
    sequence fires the same faults whatever messages flow past — only
    the keys that name them differ."""
    a = FaultInjector(make_plan("noc_jitter", 5))
    b = FaultInjector(make_plan("noc_jitter", 5))
    for i in range(100):
        a.noc_perturb(0, 1, "GetS", 64)
        b.noc_perturb(i % 3, 3 - i % 3, "PutM", None)
    assert list(a.decisions.values()) == list(b.decisions.values())
    assert a.decisions.keys() != b.decisions.keys()


def test_keys_name_the_message_and_count_its_ordinal():
    inj = FaultInjector(FaultPlan(scenario="x", seed=3, noc_delay_rate=1.0,
                                  noc_delay_max_cycles=9, dir_nack_rate=1.0,
                                  dir_nack_budget=9, bs_amp_rate=1.0,
                                  bs_amp_budget=9))
    inj.noc_perturb(0, 2, "PutM", 64)
    inj.noc_perturb(0, 2, "PutM", 64)
    inj.noc_perturb(1, 0, "GrtDeposit", None)
    inj.dir_nack(1, 128, 3, "Order")
    inj.bs_amplify(2, 192)
    assert [key for key in inj.decisions] == [
        ("noc", 0, 2, "PutM", 64, 0),
        ("noc", 0, 2, "PutM", 64, 1),
        ("noc", 1, 0, "GrtDeposit", None, 0),
        ("dir_nack", 1, 128, 3, "Order", 0),
        ("bs_amp", 2, 192, 0),
    ]


def test_replaying_the_fired_map_fires_it_again():
    full = FaultInjector(make_plan("chaos_combo", 9))
    _drive(full)
    replay = FaultInjector(make_plan("chaos_combo", 9),
                           decisions=full.decisions)
    _drive(replay)
    assert replay.decisions == full.decisions
    assert list(replay.decisions) == list(full.decisions)
    assert replay.summary() == full.summary()


def test_map_mode_fires_exactly_a_subset_and_counts_alike():
    full = FaultInjector(make_plan("chaos_combo", 9))
    _drive(full)
    assert len(full.decisions) >= 4
    subset = dict(list(full.decisions.items())[::2])
    replay = FaultInjector(make_plan("chaos_combo", 9), decisions=subset)
    _drive(replay)
    assert replay.decisions == subset
    # consultations are counted whether or not faults fire
    assert replay.counts == full.counts


def test_map_mode_ignores_rates_and_budgets():
    plan = FaultPlan(scenario="none", seed=1)
    decisions = {("noc", 0, 1, "GetX", 64, 1): 5,
                 ("dir_nack", 0, 64, 2, "Order", 0): True,
                 ("bs_amp", 3, 64, 0): True}
    inj = FaultInjector(plan, decisions=decisions)
    assert [inj.noc_perturb(0, 1, "GetX", 64) for _ in range(3)] == [0, 5, 0]
    assert inj.dir_nack(0, 64, 2, "Order")
    assert not inj.dir_nack(0, 64, 2, "Order")
    assert inj.bs_amplify(3, 64)
    assert inj.decisions == decisions
    assert inj.summary()["fired"] == {SITE_NOC_DELAY: 1, SITE_DIR_NACK: 1,
                                      SITE_BS_AMP: 1}


def test_empty_map_fires_nothing_but_counts_advance():
    inj = FaultInjector(make_plan("chaos_combo", 9), decisions={})
    _drive(inj)
    assert inj.decisions == {}
    assert sum(inj.counts.values()) > 0


def test_entries_name_the_map_and_read_as_messages():
    decisions = {("noc", 0, 2, "PutM", 64, 0): DROP_CYCLES,
                 ("noc", 1, 0, "GrtDeposit", None, 3): 12,
                 ("dir_nack", 1, 128, 3, "Order", 0): True,
                 ("bs_amp", 2, 192, 1): True}
    entries = [[*key, value] for key, value in decisions.items()]
    assert from_entries(entries) == decisions
    assert [describe(entry) for entry in entries] == [
        "PutM 0->2 line 0x40 #0 dropped",
        "GrtDeposit 1->0 #3 +12 cycles",
        "Order from core 3 at bank 1 line 0x80 #0 NACKed",
        "Inv at core 2 line 0xc0 #1 bounced",
    ]


def test_budgets_cap_fired_injections():
    plan = FaultPlan(scenario="x", seed=3, dir_nack_rate=1.0,
                     dir_nack_budget=5, bs_amp_rate=1.0, bs_amp_budget=2)
    inj = FaultInjector(plan)
    _drive(inj, n=50)
    fired = inj.summary()["fired"]
    assert fired[SITE_DIR_NACK] == 5
    assert fired[SITE_BS_AMP] == 2


def test_drop_returns_drop_cycles_and_respects_budget():
    plan = FaultPlan(scenario="x", seed=3, noc_drop_rate=1.0,
                     noc_drop_budget=2)
    inj = FaultInjector(plan)
    extras = [inj.noc_perturb(0, 1, "GetX", 64) for _ in range(10)]
    assert extras.count(DROP_CYCLES) == 2
    assert all(e in (0, DROP_CYCLES) for e in extras)


def test_delay_magnitude_is_bounded_and_nonzero():
    plan = FaultPlan(scenario="x", seed=3, noc_delay_rate=1.0,
                     noc_delay_max_cycles=17)
    inj = FaultInjector(plan)
    extras = [inj.noc_perturb(0, 1, "GetX", 64) for _ in range(100)]
    assert all(1 <= e <= 17 for e in extras)
    assert len(set(extras)) > 1  # actual jitter, not a constant


def test_zero_rates_never_fire_or_count():
    inj = FaultInjector(FaultPlan(scenario="none", seed=1))
    _drive(inj)
    assert inj.decisions == {}
    assert inj.summary()["fired"] == {}


def test_retry_backoff_caps_exponential_growth():
    plan = FaultPlan(scenario="x", seed=1, retry_backoff_base=8,
                     retry_backoff_cap=256)
    inj = FaultInjector(plan)
    delays = [inj.retry_backoff(r, default=20) for r in range(1, 12)]
    assert delays[0] == 8
    assert delays[:6] == [8, 16, 32, 64, 128, 256]
    assert all(d == 256 for d in delays[5:])


def test_retry_backoff_disabled_returns_default():
    inj = FaultInjector(FaultPlan(scenario="x", seed=1))
    assert inj.retry_backoff(7, default=20) == 20


def test_wplus_timeout_scaling():
    shrink = FaultInjector(FaultPlan(scenario="x", seed=1,
                                     wplus_timeout_scale=0.2))
    inflate = FaultInjector(FaultPlan(scenario="x", seed=1,
                                      wplus_timeout_scale=4.0))
    neutral = FaultInjector(FaultPlan(scenario="x", seed=1))
    assert shrink.wplus_timeout(1000) == 200
    assert inflate.wplus_timeout(1000) == 4000
    assert neutral.wplus_timeout(1000) == 1000
    assert shrink.wplus_timeout(1) == 1  # floor at one cycle


def test_summary_reports_fired_and_consulted():
    inj = FaultInjector(make_plan("noc_jitter", 9))
    for _ in range(50):
        inj.noc_perturb(0, 1, "GetX", 64)
    s = inj.summary()
    assert s["consulted"][SITE_NOC_DELAY] == 50
    assert 0 < s["fired"][SITE_NOC_DELAY] < 50
