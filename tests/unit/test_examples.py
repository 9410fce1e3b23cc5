"""The scripts under ``examples/`` run to completion and tell the story
their docstrings promise."""

import importlib.util
import os

from repro.common.params import FenceDesign

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples")


def run_example(name, capsys):
    path = os.path.join(EXAMPLES, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    rows = [line for line in out.splitlines()
            if line.endswith(("ok", "VIOLATED"))]
    # the fence-less run first, then one row per design
    assert rows[0].startswith("none") and rows[0].endswith("VIOLATED")
    assert len(rows) == 1 + len(FenceDesign)
    assert all(row.endswith("ok") for row in rows[1:])


def test_deadlock_recovery(capsys):
    out = run_example("deadlock_recovery", capsys)
    assert all(f"[{step}]" in out for step in range(1, 5))
    # Fig. 3a deadlocks; the three fixes complete with SC intact
    assert "-> deadlock: " in out and "blocked cores" in out
    assert out.count("SC preserved") == 3
    assert "unexpectedly completed" not in out
