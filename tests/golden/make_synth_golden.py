"""Regenerate the golden synthesis report.

Usage::

    PYTHONPATH=src python tests/golden/make_synth_golden.py

Pins the full SB x five-designs ``repro synth`` report (CLI defaults,
seed 1) as ``tests/golden/data/synth_sb.json``.  Only regenerate for a
*deliberate* change to the search, the cost model, or the report
schema — never to paper over drift.
"""

from __future__ import annotations

import os
import sys

from repro.synth import SynthConfig, run_synthesis
from repro.verify.oracles import PAPER_DESIGNS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def main() -> int:
    config = SynthConfig(program="sb", designs=PAPER_DESIGNS, seed=1)
    report = run_synthesis(config)
    if not report.ok:
        print("refusing to pin a not-ok report", file=sys.stderr)
        return 1
    path = os.path.join(DATA_DIR, "synth_sb.json")
    report.write(path)
    print(f"wrote {path} ({report.total_runs} oracle verdicts from "
          f"{report.simulated_runs} simulator runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
