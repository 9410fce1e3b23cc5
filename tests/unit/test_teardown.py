"""A finished machine is freed by reference count.

``run_workload``, ``run_program`` and the litmus helpers build a machine
and hand back only its results, so they dispose it: with the cyclic
collector switched off, nothing they leave behind needs it — while the
*result is still held* — and everything a caller can still read (stats,
dependence events, trace records, attribution, diagnostics bundles) is
what it was without the teardown.  ``tests/unit/test_cpu_garbage.py`` is
the other half: nothing for the collector *during* a run.

The ``run_workload`` cases pass ``sanitize_mode()`` on purpose: the
``tier1-sanitize`` CI job then runs them with a strict sanitizer bound
to every machine, and that edge has to be torn down too.
"""

import gc
import hashlib
import os

import pytest

from repro.common.errors import DeadlockError, SimulatorError
from repro.common.params import FenceDesign, FenceRole, MachineParams
from repro.core import isa as ops
from repro.faults.chaos import run_chaos_case
from repro.obs import Observability
from repro.obs.analyze import load_jsonl, replay_attribution
from repro.obs.attrib import conservation_errors
from repro.obs.export import run_provenance, write_jsonl
from repro.sanitizer import Sanitizer
from repro.sanitizer.core import sanitize_mode
from repro.sim.governor import RunBudget
from repro.sim.machine import Machine
from repro.sim.scv import find_scv
from repro.synth.programs import NAMED_PROGRAMS, program_for_spec
from repro.verify.oracles import PAPER_DESIGNS, run_program
from repro.workloads import litmus
from repro.workloads.base import REGISTRY, load_all_workloads, run_workload
from tests.support import reset_global_id_streams

#: (workload, scale) — the sweep's four families at tier-1 size
WORKLOADS = (("fib", 0.1), ("Counter", 0.1), ("Tree", 0.1), ("vacation", 0.1))


def unreachable_after(fn):
    """Call *fn* with the collector off; return what a full collection
    then finds, counted while *fn*'s result is still held."""
    load_all_workloads()
    gc.collect()
    gc.disable()
    try:
        held = fn()
        return gc.collect(), held
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# nothing left for the collector
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=lambda d: d.value)
@pytest.mark.parametrize("name,scale", WORKLOADS)
def test_run_workload_leaves_nothing_to_collect(name, scale, design):
    unreachable, run = unreachable_after(
        lambda: run_workload(name, design, num_cores=4, scale=scale,
                             check=True, sanitize=sanitize_mode()))
    assert run.result.stats.total_instructions > 0
    assert unreachable == 0


@pytest.mark.parametrize("name", ["Counter", "fib"])
def test_a_cfence_run_leaves_nothing_to_collect(name):
    # every executed C-fence waits on the centralized table through a
    # record of its own; the machine's teardown must leave none behind
    unreachable, run = unreachable_after(
        lambda: run_workload(name, FenceDesign.CFENCE, num_cores=4,
                             scale=0.1, check=True, sanitize=sanitize_mode()))
    stats = run.result.stats
    assert stats.cfence_skips + stats.cfence_stalls > 0  # fib stalls too
    assert unreachable == 0


@pytest.mark.parametrize("design", PAPER_DESIGNS, ids=lambda d: d.value)
@pytest.mark.parametrize("spec", NAMED_PROGRAMS)
def test_run_program_leaves_nothing_to_collect(spec, design):
    program = program_for_spec(spec)
    unreachable, run = unreachable_after(lambda: run_program(program, design))
    assert run.completed and run.observed
    assert unreachable == 0


@pytest.mark.parametrize("kernel", [
    litmus.store_buffering, litmus.three_thread_cycle,
    litmus.false_sharing_interference, litmus.message_passing,
], ids=lambda fn: fn.__name__)
def test_litmus_helper_leaves_nothing_to_collect(kernel):
    unreachable, outcome = unreachable_after(
        lambda: kernel(FenceDesign.WS_PLUS))
    assert outcome.result.completed and outcome.observed
    assert unreachable == 0


def _fig3a_deadlock():
    # both fences weak, recovery off: the paper's Fig. 3a deadlock
    try:
        litmus.store_buffering(
            FenceDesign.W_PLUS, recovery=False,
            roles=(FenceRole.CRITICAL, FenceRole.CRITICAL))
    except DeadlockError as exc:
        return exc.diagnostics
    raise AssertionError("Fig. 3a did not deadlock")


def test_a_deadlocked_run_leaves_nothing_to_collect():
    unreachable, diagnostics = unreachable_after(_fig3a_deadlock)
    # the bundle the error carried is plain data and outlives the machine
    assert diagnostics["blocked_cores"] == [0, 1]
    assert [c["bs_lines"] for c in diagnostics["cores"]] != [[], []]
    assert unreachable == 0


def test_a_strict_sanitizer_abort_leaves_nothing_to_collect():
    unreachable, case = unreachable_after(
        lambda: run_chaos_case("illegal_drop", FenceDesign.W_PLUS, 1))
    assert case.failed and case.sanitizer
    assert unreachable == 0


def test_an_event_budget_cutoff_leaves_nothing_to_collect():
    unreachable, run = unreachable_after(
        lambda: run_workload("fib", FenceDesign.W_PLUS, num_cores=4,
                             scale=0.1, budget=RunBudget(max_events=500),
                             sanitize=sanitize_mode()))
    assert run.result.degraded and "event budget" in run.result.degraded_reason
    assert unreachable == 0


def test_an_observed_run_leaves_nothing_to_collect():
    obs = Observability(attrib=True)
    unreachable, run = unreachable_after(
        lambda: run_workload("Counter", FenceDesign.W_PLUS, num_cores=4,
                             scale=0.1, obs=obs, sanitize=sanitize_mode()))
    assert obs.tracer.records and obs.attrib.tree()
    assert unreachable == 0


# ---------------------------------------------------------------------------
# what outlives the machine is what it was
# ---------------------------------------------------------------------------


def _by_hand(name, design, scale, seed, obs=None, track=False):
    """``run_workload``'s steps on a machine that is kept, not disposed."""
    load_all_workloads()
    workload = REGISTRY[name](scale=scale)
    params = MachineParams(track_dependences=track).with_cores(4)
    machine = Machine(params.with_design(design), seed=seed)
    if obs is not None:
        obs.attach(machine)
    workload.setup(machine)
    return machine, machine.run(max_cycles=workload.cycle_budget)


@pytest.mark.parametrize("design", [FenceDesign.S_PLUS, FenceDesign.W_PLUS],
                         ids=lambda d: d.value)
def test_stats_and_dependence_events_survive_teardown(design):
    params = MachineParams(track_dependences=True).with_cores(4)
    run = run_workload("Tree", design, num_cores=4, scale=0.1, seed=7,
                       params=params, sanitize="off")
    machine, kept = _by_hand("Tree", design, 0.1, 7, track=True)
    assert run.result.stats.to_dict() == kept.stats.to_dict()
    assert run.result.cycles == kept.cycles
    assert len(run.result.events) == len(kept.events) > 0
    assert find_scv(run.result.events) == find_scv(kept.events)
    assert machine.cores  # the hand-run twin was never torn down


def _trace_bytes(tmp_path, stem, run, obs):
    path = str(tmp_path / f"{stem}.jsonl")
    write_jsonl(path, obs.tracer, label="t",
                provenance=run_provenance(run))
    with open(path, "rb") as fh:
        return path, fh.read()


def test_trace_metrics_and_attribution_survive_teardown(tmp_path):
    design = FenceDesign.W_PLUS
    reset_global_id_streams()
    obs = Observability(attrib=True)
    run = run_workload("Counter", design, num_cores=4, scale=0.1, seed=5,
                       obs=obs, sanitize="off")
    reset_global_id_streams()
    kept_obs = Observability(attrib=True)
    _machine, kept = _by_hand("Counter", design, 0.1, 5, obs=kept_obs)

    path, data = _trace_bytes(tmp_path, "disposed", run, obs)
    _, kept_data = _trace_bytes(
        tmp_path, "kept", run, kept_obs)  # same provenance header
    assert data == kept_data
    tree = obs.attrib.tree()
    assert tree == kept_obs.attrib.tree()
    assert conservation_errors(tree) == []
    assert replay_attribution(load_jsonl(path))["machine"] == tree["machine"]
    assert obs.attrib.now == kept.cycles  # the clock outlives the machine
    assert run.result.stats.to_dict() == kept.stats.to_dict()


def _bundle_digests(diag_dir):
    digests = {}
    for name in sorted(os.listdir(diag_dir)):
        with open(os.path.join(diag_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("scenario,design,sanitize,kinds", [
    ("illegal_drop", FenceDesign.W_PLUS, "strict", ("sanitizer_", "attrib_")),
    ("illegal_drop", FenceDesign.WS_PLUS, "off", ("deadlock_", "attrib_")),
])
def test_failing_chaos_bundles_are_what_they_were(
        tmp_path, monkeypatch, scenario, design, sanitize, kinds):
    """The watchdog / sanitizer / attribution artifacts of a failing
    case, byte for byte, against a run whose machine is never disposed."""
    def bundles(sub):
        reset_global_id_streams()
        diag_dir = str(tmp_path / sub / "diag")  # same name in every bundle
        case = run_chaos_case(scenario, design, 1, diag_dir=diag_dir,
                              sanitize=sanitize)
        assert case.failed
        return case.to_dict(), _bundle_digests(diag_dir)

    disposed = bundles("disposed")
    monkeypatch.setattr(Machine, "dispose", lambda self: None)
    kept = bundles("kept")
    for record in (disposed[0], kept[0]):
        for key in ("diagnostics_path", "attrib_path"):
            record[key] = os.path.basename(record[key])
    assert disposed == kept
    for kind in kinds:
        assert any(name.startswith(kind) for name in disposed[1]), disposed[1]


# ---------------------------------------------------------------------------
# the machine's side of the contract
# ---------------------------------------------------------------------------


def _sb_thread(mine, other):
    def fn(ctx):
        yield ops.Store(mine, 1)
        yield ops.Fence(FenceRole.CRITICAL)
        yield ops.Load(other)
    return fn


def _hand_built(design=FenceDesign.WS_PLUS):
    machine = Machine(litmus.litmus_params(design), seed=1)
    x, y = machine.alloc.word(), machine.alloc.word()
    machine.attach_sanitizer(Sanitizer(mode="strict"))
    machine.spawn(_sb_thread(x, y))
    machine.spawn(_sb_thread(y, x))
    return machine, x


def test_a_disposed_machine_refuses_to_run_or_spawn():
    machine, x = _hand_built()
    result = machine.run()
    machine.dispose()
    with pytest.raises(SimulatorError, match="disposed"):
        machine.run()
    with pytest.raises(SimulatorError, match="disposed"):
        machine.spawn(_sb_thread(x, x))
    machine.dispose()  # idempotent
    # what the caller holds is untouched
    assert result.stats is machine.stats and result.cycles == machine.queue.now
    assert machine.queue.executed > 0 and len(machine.queue) == 0


def test_a_machine_run_by_hand_is_not_disposed():
    machine, x = _hand_built()
    sanitizer = machine.sanitizer
    result = machine.run()
    assert result.completed
    assert machine.cores[0].wb.empty
    line = machine.amap.line_of(x)
    entry = machine.banks[machine.amap.home_bank(line)].dir_state(line)
    assert entry.owner is not None or entry.sharers
    sanitizer.final_check()
    assert sanitizer.sweeps > 0 and not sanitizer.violations


def test_a_machine_disposed_before_it_ran_leaves_nothing_to_collect():
    def build_and_dispose():
        machine, _x = _hand_built()
        machine.dispose()

    unreachable, _ = unreachable_after(build_and_dispose)
    assert unreachable == 0
