"""The runtime protocol sanitizer: detection, escalation, diagnostics.

Corruption is *seeded* here — a scheduled event reaches into live
machine state mid-run and breaks one structural invariant — so every
test pins down not just that the sanitizer fires but **when** (at the
first check after the violating cycle, not at a watchdog timeout) and
**what** it names (invariant, cycle, core, line).
"""

import json

import pytest

from repro.common.errors import SanitizerError
from repro.common.params import FenceDesign
from repro.sanitizer import MODES, Sanitizer
from repro.workloads.base import load_all_workloads, run_workload

from tests.support import tiny_params

CORRUPT_AT = 3_000


def _sanitized_machine(mode, design=FenceDesign.S_PLUS, interval=500,
                       seed=12345, num_cores=4):
    """A fib-workload machine with a sanitizer attached (not yet run)."""
    from repro.sim.machine import Machine
    from repro.workloads.base import REGISTRY

    load_all_workloads()
    workload = REGISTRY["fib"](scale=0.2)
    params = tiny_params(design, num_cores=num_cores, exact=False)
    machine = Machine(params, seed=seed)
    sanitizer = Sanitizer(mode=mode, interval=interval)
    machine.attach_sanitizer(sanitizer)
    workload.setup(machine)
    return machine, sanitizer, workload


def _seed_dir_corruption(machine, at=CORRUPT_AT):
    """At cycle *at*, add a line's owner to its own sharer list — the
    single-writer bookkeeping violation a protocol bug would produce."""
    corrupted = []

    def corrupt():
        for bank in machine.banks:
            for line, entry in bank.entries.items():
                if entry.owner is not None and line not in bank._busy:
                    entry.sharers.add(entry.owner)
                    corrupted.append((bank.bank_id, line, entry.owner))
                    return
        # no owned line yet: retry shortly (never observed for fib)
        machine.queue.schedule(100, corrupt, "corrupt")

    machine.queue.schedule(at, corrupt, "corrupt")
    return corrupted


def test_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown sanitizer mode"):
        Sanitizer(mode="paranoid")
    with pytest.raises(ValueError, match="unknown sanitizer mode"):
        Sanitizer(mode="degrade")  # a budget degrades a run; a sanitizer never
    assert "off" not in MODES  # off means "don't attach one"


def test_clean_run_is_silent_and_counts_its_checks():
    machine, sanitizer, workload = _sanitized_machine("strict")
    result = machine.run(max_cycles=workload.cycle_budget)
    assert result.completed
    assert sanitizer.violations == [] and sanitizer.dropped == 0
    assert result.sanitizer_violations == 0
    assert sanitizer.sweeps > 1  # sampling pump + final sweep
    assert sanitizer.transition_checks > 0  # fence/dir/wb hooks fired


def test_strict_catches_seeded_corruption_at_first_violating_cycle():
    machine, sanitizer, workload = _sanitized_machine("strict")
    corrupted = _seed_dir_corruption(machine)
    with pytest.raises(SanitizerError) as excinfo:
        machine.run(max_cycles=workload.cycle_budget)
    assert corrupted, "corruption event never found an owned line"
    violation = excinfo.value.violation
    assert violation["invariant"] == "dir-owner-in-sharers"
    # caught at the first check after the corrupting cycle: within one
    # sampling interval, not at a much later deadlock/watchdog horizon
    assert CORRUPT_AT <= violation["cycle"] <= CORRUPT_AT + sanitizer.interval
    bank_id, line, owner = corrupted[0]
    assert violation["line"] == line
    assert violation["core"] == owner
    message = str(excinfo.value)
    assert "dir-owner-in-sharers" in message
    assert f"cycle {violation['cycle']}" in message
    assert f"line {line:#x}" in message


def test_warn_mode_records_the_violation_and_finishes_the_run(capsys):
    machine, sanitizer, workload = _sanitized_machine("warn")
    _seed_dir_corruption(machine)
    result = machine.run(max_cycles=workload.cycle_budget)
    assert result.completed and not result.degraded
    assert result.sanitizer_violations >= 1
    assert sanitizer.first_violation["invariant"] == "dir-owner-in-sharers"
    # only the first violation is printed; the rest just accumulate
    err = capsys.readouterr().err
    assert err.count("sanitizer: dir-owner-in-sharers") == 1


def test_first_violation_writes_a_watchdog_format_bundle(tmp_path):
    machine, sanitizer, workload = _sanitized_machine("strict")
    machine.diag_dir = str(tmp_path)
    _seed_dir_corruption(machine)
    with pytest.raises(SanitizerError) as excinfo:
        machine.run(max_cycles=workload.cycle_budget)
    path = excinfo.value.diagnostics_path
    assert path is not None and path.endswith(".json")
    assert "sanitizer_S+" in path
    bundle = json.load(open(path))
    # the watchdog post-mortem keys (PR 4 tooling reads these)...
    for key in ("cycle", "design", "num_cores", "cores",
                "in_flight_events"):
        assert key in bundle
    # ...plus the violation record itself
    assert bundle["violation"]["invariant"] == "dir-owner-in-sharers"
    assert bundle == excinfo.value.diagnostics


def test_event_horizon_flags_an_undeliverable_event():
    machine, sanitizer, _ = _sanitized_machine("warn")
    machine.queue.schedule(2_000_000, lambda: None, "lost_putm")
    sanitizer.check_all()
    first = sanitizer.first_violation
    assert first["invariant"] == "event-horizon"
    assert "lost_putm" in first["detail"]
    assert "undeliverable" in first["detail"]


def test_queue_time_monotonicity_is_checked():
    machine, sanitizer, _ = _sanitized_machine("warn")
    # plant a behind-the-clock ghost via the backend-portable hook (the
    # queue itself would reject a negative delay)
    machine.queue.unsafe_schedule_at(-5, lambda: None, "ghost")
    sanitizer.check_all()
    assert sanitizer.first_violation["invariant"] == "queue-time-monotonic"


def test_wb_fifo_inversion_is_caught_on_push():
    machine, sanitizer, _ = _sanitized_machine("warn")
    core = machine.cores[0]
    a = core.wb.push(0x100, 1, 0x100)
    a.store_id += 10  # corrupt the id stream
    core.wb.push(0x140, 2, 0x140)  # push-hook sees the inversion
    assert sanitizer.first_violation["invariant"] == "wb-fifo"
    assert sanitizer.first_violation["core"] == 0


def test_bs_grain_mismatch_names_the_design_contract():
    machine, sanitizer, _ = _sanitized_machine("warn")
    machine.cores[1].bs.fine_grain = True  # word-granularity BS on S+
    sanitizer.check_all()
    first = sanitizer.first_violation
    assert first["invariant"] == "bs-grain-mismatch"
    assert first["core"] == 1
    assert "SW+ only" in first["detail"]


def test_violation_cap_counts_overflow_instead_of_storing_it():
    machine, sanitizer, workload = _sanitized_machine("warn")
    sanitizer.max_violations = 2
    for _ in range(5):
        sanitizer._report("wb-fifo", core=0, detail="synthetic")
    assert len(sanitizer.violations) == 2
    assert sanitizer.dropped == 3
    result = machine.run(max_cycles=workload.cycle_budget)
    assert result.sanitizer_violations == 5  # cap never loses the count


def test_final_check_sweeps_the_quiesced_machine():
    # an interval longer than the whole run: the only sweep is the
    # closing one after the quiesce drain
    machine, sanitizer, workload = _sanitized_machine(
        "strict", interval=10**9)
    result = machine.run(max_cycles=workload.cycle_budget)
    assert result.completed
    assert sanitizer.sweeps == 1


def test_pump_sweeps_every_interval_across_an_idle_window():
    """Both threads compute through 200 000 instructions (~100 sweep
    intervals) without touching memory: the pump still sweeps once per
    interval, every tick on the interval grid — ``interval`` is the one
    control over that cost."""
    from repro.core import isa as ops
    from repro.sim.machine import Machine

    interval = 500
    machine = Machine(tiny_params(num_cores=2), seed=5)
    sanitizer = Sanitizer(mode="warn", interval=interval)
    machine.attach_sanitizer(sanitizer)
    x = machine.alloc.word()

    def thread(ctx):
        yield ops.Compute(200_000)
        for i in range(3):  # so the run does not end at the window's edge
            yield ops.Store(x + 64 * (ctx.tid + 1), i)
            yield ops.Load(x + 64 * (ctx.tid + 1))

    machine.spawn(thread)
    machine.spawn(thread)
    ticks = []
    tick = sanitizer._tick
    sanitizer._tick = lambda: (ticks.append(machine.queue.now), tick())
    result = machine.run()
    assert result.completed and sanitizer.violations == []
    assert result.cycles // interval >= 100
    assert all(t % interval == 0 for t in ticks)
    assert abs(len(ticks) - result.cycles // interval) <= 2
    assert sanitizer.sweeps == len(ticks) + 1  # + the closing sweep


def test_watchdog_and_pumps_stop_when_the_workload_raises():
    """Regression: an exception inside the run loop must not leak a
    live watchdog or sanitizer pump into the next run (try/finally in
    Machine.run)."""
    from repro.core import isa as ops
    from repro.sim.machine import Machine

    machine = Machine(tiny_params(num_cores=2), seed=7)
    sanitizer = Sanitizer(mode="warn", interval=100)
    machine.attach_sanitizer(sanitizer)

    def bad_thread(ctx):
        yield ops.Compute(200)
        raise RuntimeError("workload bug")

    machine.spawn(bad_thread)
    with pytest.raises(RuntimeError, match="workload bug"):
        machine.run(max_cycles=10_000)
    assert machine._watchdog._event is None
    assert sanitizer._event is None


@pytest.mark.parametrize("mode", ["warn", "strict"])
def test_run_workload_sanitize_plumbs_through(mode):
    load_all_workloads()
    run = run_workload("fib", FenceDesign.WS_PLUS, num_cores=2,
                       scale=0.1, seed=3, sanitize=mode)
    assert run.result.completed
    assert run.result.sanitizer_violations == 0


def test_run_workload_reads_the_sanitize_env(monkeypatch):
    load_all_workloads()
    seen = {}

    class Probe(Sanitizer):
        def __init__(self, mode="strict", **kw):
            seen["mode"] = mode
            super().__init__(mode=mode, **kw)

    monkeypatch.setenv("REPRO_SANITIZE", "warn")
    monkeypatch.setattr("repro.sanitizer.Sanitizer", Probe)
    run = run_workload("fib", FenceDesign.S_PLUS, num_cores=2,
                       scale=0.1, seed=3)
    assert seen["mode"] == "warn"
    assert run.result.completed
