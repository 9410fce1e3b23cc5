"""Self-test of the benchmark's own machinery.

Run as ``python -m pytest bench/selftest.py`` (not part of tier-1: the
benchmark must not decide whether the simulator's tests pass).  It
checks the things that would otherwise fail silently: a renamed entry
point reporting ``calls = 0``, wrappers left behind after a traced
pass, span accounting that no longer adds up, and metric names that
drifted away from ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import tempfile
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import layer_trace  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

#: sizes small enough for a test, large enough to reach every stratum
TINY = {
    "SWEEP_CASES": (("fib", 0.06), ("Tree", 0.05)),
    "STORM_VERIFY_CAMPAIGNS": 1,
    "STORM_VERIFY_BUDGET": 24,
    "STORM_SYNTH_PROGRAMS": ("sb",),
    "STORM_SYNTH_POINTS": 2,
    "PROBE_CASES": (("fib", 0.06), ("Tree", 0.05)),
    "FARM_PROGRAM_CLASSES": (("sb", 2, 8, 10),),
}


def _run_body(name: str, tracer=None, seed: int = 5):
    """One tiny body in this process; returns (recorder, verdict)."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(BENCH_DIR, "out"), prefix="selftest-") as tmp:
        inputs = workload.prepare(seed, tmp)
        rec = workloads.Recorder(tracer)
        rec.start()
        with tracer or contextlib.nullcontext():
            outputs = workload.body(inputs, rec)
        return rec, workload.judge(inputs, outputs, rec)


@pytest.fixture(scope="module")
def tiny():
    """Tiny sizes, no ambient knobs, a pinned farm code revision."""
    patch = pytest.MonkeyPatch()
    for key, value in TINY.items():
        patch.setattr(workloads, key, value)
    # one cheap loop per cut is enough to exercise the compensation
    patch.setattr(workloads, "SPIN_ITERS", 1000)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        patch.delenv(key)
    patch.setenv("REPRO_CODE_REV", "bench-selftest")
    from repro.workloads.base import load_all_workloads

    load_all_workloads()
    yield
    patch.undo()


@pytest.fixture(scope="module")
def traced(tiny):
    """Every workload's tiny body, once under the layer tracer."""
    out = {}
    for name in workloads.WORKLOADS:
        tracer = layer_trace.LayerTracer()
        rec, verdict = _run_body(name, tracer)
        out[name] = (tracer, rec, verdict)
    return out


def test_entry_points_resolve(tiny):
    points = layer_trace.entry_points()
    strata = {stratum for stratum, _target in points}
    # handlers and generators are reached through the queue / spawn
    reached_otherwise = {"workloads.gen", "sim.pumps", "other"}
    assert strata | reached_otherwise == set(layer_trace.STRATA)


def test_every_stratum_fires(traced):
    for stratum in layer_trace.STRATA:
        if stratum == "other":
            continue
        calls = sum(tracer.strata()[stratum]["calls"]
                    for tracer, _rec, _verdict in traced.values())
        assert calls > 0, f"{stratum}: no wrapped call fired"


def test_tiny_bodies_pass_their_checks(traced):
    for name, (_tracer, rec, _verdict) in traced.items():
        assert rec.attempted > 0
        assert rec.failures == [], name


@pytest.mark.parametrize("owner, attr", [
    ("repro.sim.machine:Machine", "spawn"),
    ("repro.mem.cache:SetAssocCache", None),
    ("repro.sim.scv", "find_scv"),
    ("repro.farm.exec", "execute_job"),
])
def test_renamed_entry_point_fails_loudly(tiny, monkeypatch, owner, attr):
    if attr is None:                      # the class itself is gone
        module, _, cls = owner.partition(":")
        monkeypatch.delattr(sys.modules[module], cls)
    elif ":" in owner:                    # a named method is gone
        monkeypatch.delattr(layer_trace._resolve(owner), attr)
    else:                                 # a named function is gone
        monkeypatch.delattr(sys.modules[owner], attr)
    with pytest.raises(layer_trace.TraceSpecError):
        layer_trace.LayerTracer().install()


def test_renamed_callback_parameter_fails_loudly(tiny, monkeypatch):
    from repro.mem.l1controller import L1Controller

    def read(self, addr, when_done):  # on_done renamed
        raise AssertionError("never called")

    monkeypatch.setattr(L1Controller, "read", read)
    with pytest.raises(layer_trace.TraceSpecError):
        layer_trace.entry_points()


def test_failed_install_patches_nothing(tiny, monkeypatch):
    from repro.sim.machine import Machine

    original = vars(Machine)["run"]
    monkeypatch.delattr(sys.modules["repro.sim.scv"], "find_scv")
    with pytest.raises(layer_trace.TraceSpecError):
        layer_trace.LayerTracer().install()
    assert vars(Machine)["run"] is original


def test_wrappers_are_removed(traced):
    """After the traced passes nothing points at a wrapper any more,
    and a plain body has the digest of one that was never traced."""
    span_code = layer_trace.LayerTracer()._fine(len, 0).__code__
    for _stratum, target, opts in layer_trace.CLASS_LAYERS:
        for cls in layer_trace._target_classes(target):
            for name in layer_trace._class_methods(cls, opts):
                assert vars(cls)[name].__code__ is not span_code, (cls, name)
    for _stratum, target, _coarse in layer_trace.FUNCTION_LAYERS:
        module = sys.modules[target.partition(":")[0]]
        fn = getattr(module, target.partition(":")[2])
        assert fn.__module__ == module.__name__, target
    for name in ("sweep_hot", "probes_on"):
        _rec, after = _run_body(name)
        assert after["sim_digest"] == traced[name][2]["sim_digest"], name


def test_self_times_add_up(traced):
    for name, (tracer, _rec, _verdict) in traced.items():
        strata = tracer.strata()
        total = sum(row["self_s"] for row in strata.values())
        assert total == pytest.approx(tracer.wall_s, rel=0.01), name
        assert len(tracer._stack) == 1, f"{name}: spans left open"


def test_layers_the_workloads_must_not_touch(traced):
    sweep = traced["sweep_hot"][0].strata()
    for stratum in bench_run.PROBE_STRATA + bench_run.FARM_STRATA:
        assert sweep[stratum]["calls"] == 0, stratum
    for name in ("sweep_hot", "litmus_storm", "probes_on"):
        strata = traced[name][0].strata()
        for stratum in bench_run.FARM_STRATA:
            assert strata[stratum]["calls"] == 0, (name, stratum)


def test_benchmark_json_is_what_the_code_defines():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # regenerate with: python3 bench/run.py --print-spec > BENCHMARK.json
    assert spec == bench_run.benchmark_spec()
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [row["name"] for row in metrics + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(name) for name in names)
    assert all(unit_re.match(metric["unit"]) for metric in metrics)
    assert len(spec["per_layer"]) <= 128
    assert "setup_s" in names
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_speed_compensation_scales_each_slice():
    rec = workloads.Recorder()
    rec._slices = [1.0, 2.0]
    rec._busy = [1.0, 1.5]                # half a second asleep
    rec._cpu = [1.0, 3.0]                 # a second worker in the pool
    rec._spins = [workloads.SPIN_REF_S, workloads.SPIN_REF_S,
                  3 * workloads.SPIN_REF_S]
    # first slice ran at reference speed, the second at half of it
    assert rec.raw_wall_s == pytest.approx(3.0)
    assert rec.wall_s == pytest.approx(1.0 + 0.5 + 1.5 / 2.0)
    assert rec.cpu_s == pytest.approx(1.0 + 3.0 / 2.0)
    assert rec.setup_scale == pytest.approx(1.0)


def test_clock_stops_between_legs(tiny):
    rec = workloads.Recorder()
    rec.start()
    with rec.leg("first"):
        pass
    time.sleep(0.05)                      # a body's bookkeeping
    with rec.leg("second"):
        time.sleep(0.02)
    assert 0.02 <= rec.raw_wall_s < 0.05
    assert rec.legs["second"]["raw_wall_s"] == pytest.approx(
        rec.raw_wall_s, abs=0.005)
