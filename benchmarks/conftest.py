"""Shared helpers for the figure/table regeneration benchmarks.

Each benchmark regenerates one table or figure of the paper: it runs
the experiment grid once (``benchmark.pedantic`` with a single round —
the interesting measurement is the simulated machine, not the harness),
prints the rendered report and writes it to ``benchmarks/out/``.

Environment knobs:

* ``REPRO_SCALE``  — workload scale factor (default 0.5 for benches).
* ``REPRO_FARM_WORKERS`` — parallel simulation processes (farm workers).
* ``REPRO_CORES``  — simulated core count (default 8, the paper's).
"""

from __future__ import annotations

import os
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


def pytest_collection_modifyitems(items):
    """Every figure/table regeneration is a full experiment grid."""
    for item in items:
        item.add_marker(pytest.mark.slow)


def bench_scale(default: float = 0.5) -> float:
    try:
        return float(os.environ.get("REPRO_SCALE", default))
    except ValueError:
        return default


def bench_cores(default: int = 8) -> int:
    try:
        return int(os.environ.get("REPRO_CORES", default))
    except ValueError:
        return default


@pytest.fixture
def report_sink():
    """Write a rendered report to benchmarks/out/ and echo it."""
    OUT_DIR.mkdir(exist_ok=True)

    def sink(name: str, text: str) -> None:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return sink


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
