"""Cycle-attribution engine: conservation, online == offline replay,
and the zero-perturbation contract.

The two central claims of the profiler are pinned here:

* **conservation** — on every run, for every core, the fine-grained
  leaves sum *exactly* (``==``, not approximately) to the coarse
  three-bucket breakdown the simulator has always kept, and
  busy + fence + other + idle equals the run's cycles;
* **online == offline** — the accumulator tree built during the run
  and the tree replayed from the exported JSONL trace of the same run
  are equal dict-for-dict, which cross-checks the tracer's span
  arguments, the exporter round trip, and the interval arithmetic of
  the replay against the live accounting.
"""

import json
import os

import pytest

from repro.common.params import FenceDesign
from repro.obs import Observability
from repro.obs.analyze import load_jsonl, replay_attribution
from repro.obs.attrib import conservation_errors, diff_trees, flatten_node
from repro.obs.export import run_provenance, write_jsonl
from repro.workloads.base import load_all_workloads, run_workload

from tests.golden.cases import GOLDEN_DESIGNS, golden_path

ALL_DESIGNS = tuple(FenceDesign)  # the paper's five + l-mf + C-fence


def _profiled(design, workload="fib", trace=False, scale=0.2, **kw):
    load_all_workloads()
    obs = Observability(trace=trace, attrib=True)
    run = run_workload(workload, design, num_cores=4, scale=scale,
                       seed=12345, obs=obs, **kw)
    return run, obs


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: str(d))
@pytest.mark.parametrize("workload", ("fib", "Counter"))
def test_conservation_on_every_design(design, workload):
    run, obs = _profiled(design, workload)
    tree = obs.attrib.tree()
    assert conservation_errors(tree) == []
    # the tree's coarse buckets are the stats' coarse buckets
    t = run.stats.total_breakdown()
    machine = tree["machine"]
    assert machine["busy"] == t["busy"]
    assert machine["fence_stall"]["total"] == t["fence_stall"]
    assert machine["other_stall"]["total"] == t["other_stall"]


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: str(d))
@pytest.mark.parametrize("workload", ("fib", "Counter"))
def test_online_equals_offline_replay(design, workload, tmp_path):
    run, obs = _profiled(design, workload, trace=True)
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(path, obs.tracer, provenance=run_provenance(run))
    online = obs.attrib.tree(label="x")
    offline = replay_attribution(load_jsonl(path), label="x")
    assert online == offline


def test_machine_node_is_elementwise_core_sum():
    _, obs = _profiled(FenceDesign.WEE)
    tree = obs.attrib.tree()
    flat_cores = [flatten_node(node) for node in tree["cores"]]
    flat_machine = flatten_node(tree["machine"])
    for path, value in flat_machine.items():
        assert value == sum(f.get(path, 0.0) for f in flat_cores), path


@pytest.mark.parametrize("design", GOLDEN_DESIGNS, ids=lambda d: str(d))
def test_profiling_off_is_bit_identical(design):
    """Mirror of the tracing-off test: attaching the profiler must
    leave the simulated run bit-identical."""
    load_all_workloads()
    plain = run_workload("fib", design, num_cores=4, scale=0.2, seed=12345)
    profiled, _ = _profiled(design)
    assert profiled.stats.to_dict() == plain.stats.to_dict()
    assert profiled.cycles == plain.cycles


@pytest.mark.parametrize("design", GOLDEN_DESIGNS, ids=lambda d: str(d))
def test_profiled_run_still_matches_goldens(design):
    """A profiled run of the golden recipe reproduces the committed
    golden stats — profiling cannot shift the machine's timing."""
    path = golden_path(design)
    if not os.path.exists(path):  # pragma: no cover - goldens committed
        pytest.skip(f"no golden for {design}")
    with open(path) as fh:
        golden = json.load(fh)
    run, _ = _profiled(design, scale=0.25)
    assert run.stats.to_dict() == golden["fib"]["stats"]
    assert run.cycles == golden["fib"]["cycles"]


def test_cutoff_run_still_conserves():
    """A cycle-budget cutoff may leave negative idle (trailing
    serialization charge) but never breaks leaf-vs-bucket equality."""
    from repro.common.params import MachineParams
    from repro.obs import CycleAttribution
    from repro.sim.machine import Machine
    from repro.workloads.base import REGISTRY

    load_all_workloads()
    workload = REGISTRY["fib"](scale=0.2)
    params = MachineParams().with_cores(4).with_design(FenceDesign.S_PLUS)
    machine = Machine(params, seed=12345)
    attrib = CycleAttribution()
    machine.attach_attrib(attrib)
    workload.setup(machine)
    result = machine.run(max_cycles=800)
    assert not result.completed
    assert conservation_errors(attrib.tree()) == []


def test_cutoff_inside_a_cfence_reply_still_conserves():
    """C-fence bills an episode when the table lets the fence go, one
    reply flight before the ``sf`` span closes; a cutoff anywhere across
    such a flight (cycles 473-478 after a stall, 493-498 after a skip)
    finds the leaf booked with the bucket."""
    from repro.common.params import MachineParams
    from repro.sim.machine import Machine
    from repro.workloads.base import REGISTRY

    load_all_workloads()
    billed_in_flight = 0
    for max_cycles in range(465, 505):
        workload = REGISTRY["fib"](scale=0.2)
        params = MachineParams().with_cores(4).with_design(FenceDesign.CFENCE)
        machine = Machine(params, seed=12345)
        obs = Observability(attrib=True).attach(machine)
        workload.setup(machine)
        assert not machine.run(max_cycles=max_cycles).completed
        tree = obs.attrib.tree()
        assert conservation_errors(tree) == [], max_cycles
        landed = sum(ev.dur for ev in obs.tracer.spans("sf")
                     if not ev.args.get("incomplete"))
        leaf = flatten_node(tree["machine"])["fence_stall.cfence"]
        assert leaf >= landed
        billed_in_flight += leaf > landed
    assert billed_in_flight


def test_diff_of_identical_trees_moves_nothing():
    _, obs = _profiled(FenceDesign.S_PLUS)
    tree = obs.attrib.tree(label="a")
    diff = diff_trees(tree, tree, label_base="a", label_other="a")
    assert diff["schema"] == "repro.attrib.diff/1"
    assert all(row["delta"] == 0 for row in diff["rows"])


def test_diff_names_moved_components():
    _, obs_s = _profiled(FenceDesign.S_PLUS)
    _, obs_w = _profiled(FenceDesign.W_PLUS)
    diff = diff_trees(obs_s.attrib.tree(), obs_w.attrib.tree())
    paths = [row["path"] for row in diff["rows"]]
    # S+ serializes every sf; W+ has no sf at all — the diff must name
    # the component that moved, not just the coarse bucket
    assert any(p.startswith("fence_stall.sf.") for p in paths)
    rows = {row["path"]: row for row in diff["rows"]}
    sf_row = rows["fence_stall.sf.serialize"]
    assert sf_row["base"] > 0 and sf_row["other"] == 0


def test_design_events_and_metadata_ride_outside_the_tree():
    run, obs = _profiled(FenceDesign.WEE, workload="Tree")
    tree = obs.attrib.tree()
    events = obs.attrib.design_events()
    # Wee's Table-4 accounting is visible as event counts...
    assert events.get("wee_demotions", 0) + events.get(
        "wee_conversions", 0) > 0
    # ...but never as tree keys (the tree is the conserved quantity)
    assert "wee_demotions" not in flatten_node(tree["machine"])
    assert obs.attrib.top_lines(), "L1 contention metadata missing"


# ----------------------------------------------------------------------
# the listener contract: attribution answers the tracer's hook names
# ----------------------------------------------------------------------

def test_attribution_answers_every_tracer_hook_call_compatibly():
    """A component calls whatever sits in its ``tracer`` slot exactly as
    it would call a Tracer, so every hook — one added tomorrow included
    — must exist on the attribution and accept each way of calling it
    that the Tracer's signature accepts."""
    import inspect

    from repro.obs import CycleAttribution, Tracer
    from repro.obs.tracer import HOOKS

    public = {name for name, member in vars(Tracer).items()
              if inspect.isfunction(member) and not name.startswith("_")}
    # the hooks are all of the public methods but lifecycle and queries
    assert public - set(HOOKS) == {
        "bind", "finalize", "core_summaries", "tail", "spans", "instants",
        "count"}
    empty = inspect.Parameter.empty
    for hook in HOOKS:
        params = list(inspect.signature(getattr(Tracer, hook))
                      .parameters.values())
        named = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
        required = [p for p in named if p.default is empty]
        extra = ({"anything": 1}
                 if any(p.kind is p.VAR_KEYWORD for p in params) else {})
        answer = inspect.signature(getattr(CycleAttribution, hook))
        answer.bind(*[0] * len(named))                     # all positional
        answer.bind(*[0] * len(required))                  # defaults taken
        answer.bind(0, **{p.name: 0 for p in named[1:]}, **extra)  # by name


def test_attribution_alone_is_wired_to_cores_write_buffers_and_l1s_only():
    from repro.common.params import MachineParams
    from repro.obs import CycleAttribution
    from repro.sim.machine import Machine

    machine = Machine(MachineParams().with_cores(2))
    attrib = CycleAttribution()
    machine.attach_attrib(attrib)
    for core in machine.cores:
        assert core.tracer is core.wb.tracer is core.l1.tracer is attrib
    # nothing that reads machine.tracer (finalize, watchdog trace tail,
    # sanitizer / fault instants) ever meets the listener; banks and the
    # NoC report nothing that is attributed
    assert machine.tracer is None and machine.noc.tracer is None
    assert all(bank.tracer is None for bank in machine.banks)
