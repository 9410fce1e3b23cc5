"""Explicit object-vs-flat backend differential tests.

The golden/conformance/sanitizer suites become differential when run
with ``--kernel-backend=both``; the tests here go further and compare
the two kernels *directly in one process*, so a divergence names the
first differing field instead of failing against a checked-in file:

* full ``MachineStats`` for every paper design (stats cover cycles,
  bounces, retries, per-core breakdowns, traffic — the machine-visible
  universe);
* the *complete* observability trace — every span and instant the
  simulator emits, in order, with timestamps and durations;
* deterministic chaos-case replays (fault injection + verify oracles);
* the flat kernel's compiled dispatch core against its pure-Python
  loop (skipped when the extension is not built).
"""

import json

import pytest

from repro.common.kernels import KERNELS
from repro.common.params import FenceDesign
from repro.obs import Observability
from repro.workloads.base import load_all_workloads, run_workload
from tests.support import reset_global_id_streams

DESIGNS = (
    FenceDesign.S_PLUS,
    FenceDesign.WS_PLUS,
    FenceDesign.SW_PLUS,
    FenceDesign.W_PLUS,
    FenceDesign.WEE,
)


def _first_diff(a, b, path=""):
    """Path and values of the first leaf where *a* and *b* differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if a.get(k) != b.get(k):
                return _first_diff(a.get(k), b.get(k), f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_diff(x, y, f"{path}[{i}]")
        return f"{path}: length {len(a)} != {len(b)}"
    return f"{path}: {a!r} != {b!r}"


def _assert_same(obj, flat, what):
    """Equality assert that reports the first divergence compactly.

    Feeding two multi-megabyte JSON strings to pytest's difflib-based
    assertion repr is quadratic; this pinpoints the leaf instead.
    """
    if obj != flat:
        pytest.fail(f"{what} diverged between kernels at "
                    f"{_first_diff(obj, flat)}")


def _traced_run(kernel: str, design: FenceDesign, workload: str = "fib"):
    """One pinned run on *kernel*; returns (summary, trace) dicts."""
    load_all_workloads()
    reset_global_id_streams()
    obs = Observability(trace=True)
    run = run_workload(workload, design, num_cores=4, scale=0.2,
                       seed=2024, kernel=kernel, obs=obs)
    summary = {
        "cycles": run.cycles,
        "completed": run.result.completed,
        "stats": run.stats.to_dict(),
    }
    trace = [ev.to_dict() for ev in obs.tracer.events]
    return summary, trace


@pytest.mark.parametrize("design", DESIGNS, ids=[d.name for d in DESIGNS])
def test_stats_and_full_trace_identical_across_kernels(design):
    obj_summary, obj_trace = _traced_run("object", design)
    flat_summary, flat_trace = _traced_run("flat", design)
    _assert_same(obj_summary, flat_summary, f"{design} MachineStats")
    _assert_same(obj_trace, flat_trace, f"{design} observability trace")


@pytest.mark.parametrize("workload", ["Counter", "matmul"])
def test_other_workload_groups_identical_across_kernels(workload):
    # Counter is cycle-budget-cut (ustm), matmul runs to completion
    # (cilk) — both halves of the fig 8/9 matrix.
    obj = _traced_run("object", FenceDesign.W_PLUS, workload)
    flat = _traced_run("flat", FenceDesign.W_PLUS, workload)
    _assert_same(obj, flat, f"{workload} run")


@pytest.mark.parametrize("scenario,seed", [
    ("chaos_combo", 3),
    ("illegal_drop", 2),
])
def test_chaos_replay_identical_across_kernels(scenario, seed, monkeypatch):
    """A chaos case replays from (scenario, design, seed) alone; both
    kernels must reproduce the same oracle verdicts, fault fire counts
    and cycle counts — including for the deliberately broken scenario
    where the interesting behaviour *is* the failure."""
    from repro.faults.chaos import run_chaos_case

    def replay(kernel):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        case = run_chaos_case(scenario, FenceDesign.W_PLUS, seed)
        return case.to_dict()

    _assert_same(replay("object"), replay("flat"),
                 f"chaos {scenario}/{seed} replay")


def test_sanitized_run_identical_across_kernels():
    """Sanitizer sweeps ride the queue protocol; a warn-mode run must
    count the same sweeps and violations on both backends."""
    def run_sanitized(kernel):
        load_all_workloads()
        run = run_workload("fib", FenceDesign.S_PLUS, num_cores=4,
                           scale=0.2, seed=11, kernel=kernel,
                           sanitize="warn")
        return {
            "cycles": run.cycles,
            "completed": run.result.completed,
            "violations": run.result.sanitizer_violations,
            "stats": run.stats.to_dict(),
        }

    _assert_same(run_sanitized("object"), run_sanitized("flat"),
                 "sanitized run")


def test_compiled_core_matches_pure_python_flat_loop(monkeypatch):
    from repro.common import flatevents

    if flatevents._flatcore is None:
        pytest.skip("compiled _flatcore not built in this environment")
    monkeypatch.delenv("REPRO_FLAT_NO_C", raising=False)
    with_c = _traced_run("flat", FenceDesign.WS_PLUS)
    monkeypatch.setenv("REPRO_FLAT_NO_C", "1")
    without_c = _traced_run("flat", FenceDesign.WS_PLUS)
    _assert_same(json.loads(json.dumps(with_c)),
                 json.loads(json.dumps(without_c)),
                 "flat kernel C-vs-Python dispatch")


def test_kernels_catalog_is_exactly_the_two_backends():
    assert KERNELS == ("object", "flat")
