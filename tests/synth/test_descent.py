"""The descent path of the placement search.

Above ``EXHAUSTIVE_CAP`` legal placements the search stops enumerating
the lattice: it verifies the strongest placement, shrinks its sites
with ddmin and demotes sf→wf to one local minimum.  SW+ crosses the
default cap (512) at 6 sites; ``random:310`` has 6 annotated sites and
672 legal SW+ placements, and two minimal ones at seed 1's points.  The
descent must land on one of those two and survive the double-budget
audit.
"""

import os

import repro.synth.search as search
from repro.common.params import FenceDesign
from repro.synth import SynthConfig, run_synthesis

from tests.synth.util import placement_keys

SW_PLUS = FenceDesign.SW_PLUS


def _sw_plus_entry() -> dict:
    config = SynthConfig(
        program="random:310", designs=(SW_PLUS,), seed=1,
        sanitize=os.environ.get("REPRO_SANITIZE", "off"))
    return run_synthesis(config).designs[SW_PLUS.value]


def test_descent_finds_an_audited_minimum_of_the_full_antichain(
        monkeypatch):
    entry = _sw_plus_entry()
    assert entry["num_sites"] == 6
    assert entry["num_legal_placements"] == 672
    assert entry["strategy"] == "descent"
    assert entry["status"] == "ok"
    [placement] = entry["placements"]
    assert placement["audit"]["passed"]
    assert placement["audit"]["minimal"]
    assert placement["placement"] == "t0.i4=sf"

    monkeypatch.setattr(search, "EXHAUSTIVE_CAP", 672)
    exhaustive = _sw_plus_entry()
    assert exhaustive["strategy"] == "exhaustive"
    assert exhaustive["status"] == "ok"
    assert placement_keys(exhaustive) == ["t0.i4=sf", "t0.i4=wf,t1.i2=sf"]
