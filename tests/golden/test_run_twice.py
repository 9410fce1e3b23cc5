"""Run-twice determinism: the same pinned case, twice in one process.

The goldens compare a run against a checked-in file; the tests here
compare a run against *itself*, run again after rewinding the global id
streams, so a divergence (state leaking from one machine into the
next, an unseeded choice, dict-order dependence) names the first
differing field instead of failing against a file:

* full ``MachineStats`` for every paper design (stats cover cycles,
  bounces, retries, per-core breakdowns, traffic — the machine-visible
  universe);
* the *complete* observability trace — every span and instant the
  simulator emits, in order, with timestamps and durations;
* deterministic chaos-case replays (fault injection + verify oracles);
* a warn-mode sanitized run (sweeps ride the same event queue).
"""

import pytest

from repro.common.params import FenceDesign
from repro.obs import Observability
from repro.sanitizer.core import sanitize_mode
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


def _assert_repeats(run, what):
    """Call *run* twice, each time from rewound id streams; equality
    assert that reports the first divergence compactly.

    Feeding two multi-megabyte JSON strings to pytest's difflib-based
    assertion repr is quadratic; this pinpoints the leaf instead.
    """
    results = []
    for _ in range(2):
        reset_global_id_streams()
        results.append(run())
    first, second = results
    if first != second:
        pytest.fail(f"{what} diverged between two runs at "
                    f"{_first_diff(first, second)}")


def _traced_run(design: FenceDesign, workload: str = "fib"):
    """One pinned run; returns [summary, trace]."""
    load_all_workloads()
    obs = Observability(trace=True)
    run = run_workload(workload, design, num_cores=4, scale=0.2,
                       seed=2024, obs=obs, sanitize=sanitize_mode())
    summary = {
        "cycles": run.cycles,
        "completed": run.result.completed,
        "stats": run.stats.to_dict(),
    }
    trace = [ev.to_dict() for ev in obs.tracer.events]
    return [summary, trace]


@pytest.mark.parametrize("design", DESIGNS, ids=[d.name for d in DESIGNS])
def test_stats_and_full_trace_repeat(design):
    _assert_repeats(lambda: _traced_run(design),
                    f"{design} MachineStats + observability trace")


@pytest.mark.parametrize("workload", ["Counter", "matmul"])
def test_other_workload_groups_repeat(workload):
    # Counter is cycle-budget-cut (ustm), matmul runs to completion
    # (cilk) — both halves of the fig 8/9 matrix.
    _assert_repeats(lambda: _traced_run(FenceDesign.W_PLUS, workload),
                    f"{workload} run")


@pytest.mark.parametrize("scenario,seed", [
    ("chaos_combo", 3),
    ("illegal_drop", 2),
])
def test_chaos_replay_repeats(scenario, seed):
    """A chaos case replays from (scenario, design, seed) alone: the
    same oracle verdicts, fault fire counts and cycle counts — including
    for the deliberately broken scenario where the interesting
    behaviour *is* the failure."""
    from repro.faults.chaos import run_chaos_case

    _assert_repeats(
        lambda: run_chaos_case(scenario, FenceDesign.W_PLUS, seed).to_dict(),
        f"chaos {scenario}/{seed} replay")


def test_sanitized_run_repeats():
    """Sanitizer sweeps are queue events like any other; a warn-mode
    run must count the same sweeps and violations every time."""
    def run_sanitized():
        load_all_workloads()
        run = run_workload("fib", FenceDesign.S_PLUS, num_cores=4,
                           scale=0.2, seed=11, sanitize="warn")
        return {
            "cycles": run.cycles,
            "completed": run.result.completed,
            "violations": run.result.sanitizer_violations,
            "stats": run.stats.to_dict(),
        }

    _assert_repeats(run_sanitized, "sanitized run")
