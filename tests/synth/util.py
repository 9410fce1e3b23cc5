"""Shared helpers for the synthesis test battery."""

import os
from functools import lru_cache

from repro.common.params import FenceFlavour
from repro.synth import SynthConfig, run_synthesis
from repro.synth.sites import FenceSite, Placement
from repro.verify.oracles import PAPER_DESIGNS


def parse_site(label: str) -> FenceSite:
    """Invert ``FenceSite.label()``: ``"t0.i2"`` -> ``FenceSite(0, 2)``."""
    tid, _, idx = label.partition(".")
    return FenceSite(int(tid[1:]), int(idx[1:]))


def parse_placement(key: str) -> Placement:
    """Invert ``Placement.key()``: ``"t0.i2=sf,t1.i2=wf"`` -> Placement."""
    if key == "-":
        return Placement.empty()
    mapping = {}
    for part in key.split(","):
        label, _, flavour = part.partition("=")
        mapping[parse_site(label)] = FenceFlavour(flavour)
    return Placement.of(mapping)


def placement_keys(entry: dict) -> list:
    """The minima of one per-design report entry, as sorted keys."""
    return sorted(p["placement"] for p in entry["placements"])


@lru_cache(maxsize=None)
def synth_report(program: str, seed: int = 1, num_points: int = 12):
    """One cached synthesis of *program* across the paper's designs."""
    config = SynthConfig(
        program=program, designs=PAPER_DESIGNS, seed=seed,
        num_points=num_points,
        # the strict-sanitizer CI lane re-runs the battery with every
        # synthesis run sanitized; placements and costs must not move
        # (the sanitizer is zero-perturbation, docs/SANITIZER.md)
        sanitize=os.environ.get("REPRO_SANITIZE", "off"),
    )
    return run_synthesis(config)
