#!/usr/bin/env python
"""The deadlock story of the paper's Figure 3, step by step.

1. Naive global-state-free weak fences on *both* threads of a Dekker
   group prevent the SC violation by bouncing each other's writes —
   and deadlock (Fig. 3a).  Shown with W+ recovery disabled: the
   simulator's watchdog reports the mutual block.
2. The Asymmetric fix (Fig. 3b): make one of the fences a conventional
   sf — no global state needed, no deadlock possible.
3. The W+ fix (§3.3.3): keep both fences weak, detect the deadlock
   with the (bouncing ∧ being-bounced) timeout, roll back to the
   checkpoint and re-execute.
4. The WeeFence fix (Fig. 2): global GRT state stalls the one load
   that would close the cycle.

Run:  python examples/deadlock_recovery.py
"""

from repro import FenceDesign, FenceRole
from repro.synth.programs import sb
from repro.verify.oracles import run_program

CC = (FenceRole.CRITICAL, FenceRole.CRITICAL)
ASYM = (FenceRole.CRITICAL, FenceRole.STANDARD)


def show(run):
    s = run.stats
    out = tuple(value for _key, value in sorted(run.observed.items()))
    print(f"  -> outcome {out}, {run.cycles} cycles, "
          f"{s.bounces} bounces, {s.wplus_recoveries} recoveries, "
          f"SC {'VIOLATED' if run.scv_found else 'preserved'}")


def main():
    print(__doc__)

    print("[1] naive wf-only group (no recovery): expect a deadlock")
    run = run_program(sb(CC), FenceDesign.W_PLUS,
                      params_overrides={"wplus_recovery_enabled": False})
    if run.deadlock is None:
        print("  -> unexpectedly completed?!")
    else:
        print(f"  -> deadlock: {run.deadlock}")

    print("\n[2] Asymmetric group (wf + sf) under WS+: no global state,"
          " no deadlock")
    show(run_program(sb(ASYM), FenceDesign.WS_PLUS))

    print("\n[3] wf-only group under W+: deadlock detected, rolled back,"
          " re-executed")
    show(run_program(sb(CC), FenceDesign.W_PLUS))

    print("\n[4] wf-only group under WeeFence: the GRT breaks the cycle"
          " up front")
    show(run_program(sb(CC), FenceDesign.WEE))


if __name__ == "__main__":
    main()
