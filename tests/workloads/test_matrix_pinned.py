"""Experiment-matrix rows, pinned against a table taken at an earlier
commit.

``matrix_pinned.json`` holds ``dataclasses.asdict`` of every row of a
small grid — fib and Counter under the five paper designs at 2 and 4
cores, scale 0.06, seed 5 — generated once (``python -m
tests.workloads.test_matrix_pinned`` prints it) at the commit *before*
``run_matrix`` became a farm campaign, when it still ran the grid in
its own process pool.  Regenerate it only for an intended change to a
simulated result, and say so in the commit.

The farm runs the grid inline, on a worker pool, or with the default
worker count on a temporary store; every setting must give the table.
"""

import dataclasses
import json
import os

import pytest

from repro.eval.runner import run_matrix
from repro.verify.oracles import PAPER_DESIGNS

TABLE = os.path.join(os.path.dirname(__file__), "matrix_pinned.json")

GRID = dict(names=["fib", "Counter"], designs=PAPER_DESIGNS, scale=0.06,
            seed=5, core_counts=[2, 4])


def _table(**farm):
    runs = run_matrix(**GRID, **farm)
    return {f"{name}|{design}|{cores}": dataclasses.asdict(summary)
            for (name, design, cores), summary in runs.items()}


@pytest.fixture(autouse=True)
def _no_farm_env(monkeypatch):
    monkeypatch.delenv("REPRO_FARM_DB", raising=False)
    monkeypatch.delenv("REPRO_FARM_WORKERS", raising=False)


@pytest.mark.parametrize("farm", [
    {"farm_workers": 0},
    {"farm_workers": 2},
    {},  # default worker count, temporary store
], ids=["inline", "pooled", "default"])
def test_matrix_rows_match_the_pinned_table(farm):
    with open(TABLE) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 2 * len(PAPER_DESIGNS) * 2
    # through JSON: the table holds what a report file would hold
    assert json.loads(json.dumps(_table(**farm))) == pinned


if __name__ == "__main__":
    print(json.dumps(_table(farm_workers=0), indent=1, sort_keys=True))
