"""The descent path of the placement search.

Above ``exhaustive_cap`` legal placements the search stops enumerating
the lattice: it verifies the strongest placement, shrinks its sites
with ddmin and demotes sf→wf to one local minimum.  SW+ crosses the
default cap (512) at 6 sites; ``random:310`` has 6 annotated sites and
672 legal SW+ placements, and three minimal ones.  The descent must
land on one of those three and survive the double-budget audit.
"""

import os

from repro.common.params import FenceDesign
from repro.synth import SynthConfig, run_synthesis

from tests.synth.util import placement_keys

SW_PLUS = FenceDesign.SW_PLUS


def _sw_plus_entry(**overrides) -> dict:
    config = SynthConfig(
        program="random:310", designs=(SW_PLUS,), seed=1,
        sanitize=os.environ.get("REPRO_SANITIZE", "off"), **overrides)
    return run_synthesis(config).designs[SW_PLUS.value]


def test_descent_finds_an_audited_minimum_of_the_full_antichain():
    entry = _sw_plus_entry()
    assert entry["num_sites"] == 6
    assert entry["num_legal_placements"] == 672
    assert entry["strategy"] == "descent"
    assert entry["status"] == "ok"
    [placement] = entry["placements"]
    assert placement["audit"]["passed"]
    assert placement["audit"]["minimal"]
    assert placement["placement"] == "t0.i4=sf"

    exhaustive = _sw_plus_entry(exhaustive_cap=672)
    assert exhaustive["strategy"] == "exhaustive"
    assert exhaustive["status"] == "ok"
    assert placement_keys(exhaustive) == [
        "t0.i1=sf,t1.i2=sf", "t0.i4=sf", "t0.i4=wf,t1.i2=sf"]
