#!/usr/bin/env python
"""Quickstart: the store-buffering litmus test under every fence design.

Two simulated threads run the Dekker pattern of the paper's Fig. 1d:

    P0:  x = 1 ; FENCE ; r0 = y        P1:  y = 1 ; FENCE ; r1 = x

Under sequential consistency (r0, r1) = (0, 0) is impossible.  TSO
allows it *without* fences; with fences every design must prevent it —
by stalling (S+), by bouncing conflicting writes off the Bypass Set
(WS+/SW+), by deadlock recovery (W+) or via the Global Reorder Table
(Wee).  The script shows the outcome, the cycle cost and the mechanism
activity of each design.

Run:  python examples/quickstart.py
"""

from repro import FenceDesign, FenceRole
from repro.synth.programs import sb
from repro.verify.oracles import run_program


def outcome(run):
    """(r0, r1): the value each thread's load read."""
    return tuple(value for _key, value in sorted(run.observed.items()))


def main():
    print(__doc__)
    print(f"{'design':8s} {'outcome':>9s} {'cycles':>7s} {'bounces':>8s} "
          f"{'orders':>7s} {'recoveries':>11s}  SC?")
    print("-" * 60)

    # without fences first: TSO exhibits the forbidden outcome
    run = run_program(sb().stripped(), FenceDesign.S_PLUS)
    print(f"{'none':8s} {str(outcome(run)):>9s} {run.cycles:7d} "
          f"{'-':>8s} {'-':>7s} {'-':>11s}  "
          f"{'VIOLATED' if run.scv_found else 'ok'}")

    fenced = sb((FenceRole.CRITICAL, FenceRole.STANDARD))
    for design in FenceDesign:
        run = run_program(fenced, design)
        s = run.stats
        print(f"{str(design):8s} {str(outcome(run)):>9s} {run.cycles:7d} "
              f"{s.bounces:8d} {s.order_ops:7d} {s.wplus_recoveries:11d}"
              f"  {'VIOLATED' if run.scv_found else 'ok'}")

    print("\n(0, 0) appears only in the fence-less run: every fence "
          "design preserves SC,\nthe weak ones without paying the "
          "conventional fence's drain stall.")


if __name__ == "__main__":
    main()
