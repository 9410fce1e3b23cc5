"""Schedule-exploration verification engine.

Systematically hunts for sequential-consistency violations (SCVs) and
deadlocks across the fence designs:

* :mod:`repro.verify.generator` — randomized litmus programs
  (store-buffering, IRIW, message-passing and random shapes) emitted as
  :mod:`repro.core.isa` op lists with symbolic addresses;
* :mod:`repro.verify.perturb` — schedule perturbation via
  :class:`~repro.common.params.MachineParams` sweeps (seeds, NoC
  latency, write-buffer depth, BS capacity);
* :mod:`repro.verify.oracles` — runs a program under a design and
  checks the paper's invariants (SC-acyclicity with correct fences, W+
  recovery soundness, no livelock);
* :mod:`repro.verify.shrink` — ``ddmin``, the one minimizer: shrinks
  a violating program to a 1-minimal op list that still reproduces
  (chaos and synth shrink their own sets with it);
* :mod:`repro.verify.engine` — the budgeted exploration loop and the
  machine-readable report (``repro verify`` CLI).
"""

from repro.verify.engine import VerifyConfig, VerifyReport, run_verification
from repro.verify.generator import LitmusProgram, generate_program
from repro.verify.oracles import ProgramRun, run_program
from repro.verify.perturb import SchedulePoint, schedule_points
from repro.verify.shrink import shrink_program

__all__ = [
    "LitmusProgram",
    "ProgramRun",
    "SchedulePoint",
    "VerifyConfig",
    "VerifyReport",
    "generate_program",
    "run_program",
    "run_verification",
    "schedule_points",
    "shrink_program",
]
