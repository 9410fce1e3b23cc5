"""Run one litmus program under one design and check the paper's
invariants.

The oracles encode the correctness claims of §3 and §5:

* **sc-with-fences** — a correctly fenced program (at most one wf per
  group, a fence at every store→load boundary) must produce an
  SC-acyclic dependence graph under every design;
* **no-deadlock** — with recovery enabled, no design may let the
  no-progress watchdog fire (W+ must recover, WS+/SW+ must order,
  Wee's GRT must resolve the collision);
* **recovery-soundness** — W+ recoveries may roll threads back, but
  the surviving execution must still be SC;
* **termination** — every run must complete within the verify cycle
  cap (no livelock between recovery and re-execution).

A fence-stripped program finding an SCV is *not* a violation — it is
the positive control proving the checker and the explorer both work.

``run_program`` owns the machine it builds: everything a ``ProgramRun``
carries is copied out of it, then the machine is disposed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import DeadlockError, SanitizerError, SimulatorError
from repro.common.params import FenceDesign
from repro.core import isa as ops
from repro.sim.machine import Machine
from repro.sim.scv import find_scv
from repro.verify.generator import LitmusProgram
from repro.verify.perturb import SchedulePoint

#: the five designs evaluated in the paper (CLI ``--designs all``)
PAPER_DESIGNS = (
    FenceDesign.S_PLUS,
    FenceDesign.WS_PLUS,
    FenceDesign.SW_PLUS,
    FenceDesign.W_PLUS,
    FenceDesign.WEE,
)

#: warmup alignment compute block (mirrors workloads.litmus._warmup)
WARMUP_COMPUTE = 1600


@dataclass
class ProgramRun:
    """Outcome of one (program, design, schedule point) execution."""

    program: LitmusProgram
    design: FenceDesign
    point: SchedulePoint
    completed: bool = False
    cycles: int = 0
    #: watchdog verdict, if the run deadlocked
    deadlock: Optional[str] = None
    #: unexpected simulator error (replay divergence, protocol bug...)
    error: Optional[str] = None
    #: dependence cycle found by the SCV checker, if any
    scv: Optional[list] = None
    #: first sanitizer violation, if a strict sanitizer fired
    sanitizer: Optional[str] = None
    recoveries: int = 0
    bounces: int = 0
    #: wf -> sf storm demotions (graceful degradation, W+ only)
    storm_demotions: int = 0
    #: {(tid, op_index): value} for every load the program performed
    observed: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def scv_found(self) -> bool:
        return self.scv is not None


def _thread_fn(body, addr_map, warm_addrs):
    """Bind one symbolic op list as a runnable generator function."""

    def fn(ctx):
        for addr in warm_addrs:
            yield ops.Load(addr)
        if warm_addrs:
            yield ops.Compute(WARMUP_COMPUTE)
        for idx, op in enumerate(body):
            if isinstance(op, ops.Store):
                yield ops.Store(addr_map[op.addr], op.value)
            elif isinstance(op, ops.Load):
                value = yield ops.Load(addr_map[op.addr])
                yield ops.Note((idx, value))
            elif isinstance(op, ops.AtomicRMW):
                old = yield ops.AtomicRMW(
                    addr_map[op.addr], op.op, op.operand
                )
                yield ops.Note((idx, old))
            else:
                yield op

    return fn


def run_program(
    program: LitmusProgram,
    design: FenceDesign,
    point: SchedulePoint = SchedulePoint(),
    recovery: bool = True,
    warmup: bool = True,
    faults=None,
    params_overrides: Optional[dict] = None,
    diag_dir: Optional[str] = None,
    sanitize: str = "off",
    attrib=None,
    budget=None,
) -> ProgramRun:
    """Execute *program* under *design* at *point* and classify it.

    *faults* is a :class:`repro.faults.FaultInjector` to wire into the
    machine (the chaos harness's entry point); *params_overrides* are
    extra :class:`MachineParams` field overrides (e.g. enabling the W+
    storm-demotion monitor); *diag_dir* enables watchdog post-mortem
    artifacts; *sanitize* attaches a runtime protocol sanitizer
    ("warn" | "strict") as an additional oracle — under a
    strict sanitizer a corrupted machine state is classified at the
    first violating cycle instead of surfacing later as a
    deadlock/livelock at the cycle cap.

    *attrib* is an optional :class:`repro.obs.CycleAttribution` wired
    into the machine before the run (chaos postmortems attribute the
    cycles of a failing case to fence components).

    *budget* is an optional :class:`~repro.sim.governor.RunBudget`
    bounding the run by wall/events/RSS with a graceful degraded
    cutoff — farm workers set one so a wedged case can never wedge
    its worker process.
    """
    run = ProgramRun(program=program, design=design, point=point)
    params = point.params(design, program.num_threads, recovery=recovery)
    if params_overrides:
        params = dataclasses.replace(params, **params_overrides)
    machine = Machine(params, seed=point.seed)
    if faults is not None:
        machine.attach_faults(faults)
    if sanitize != "off":
        from repro.sanitizer import Sanitizer

        # sample well inside the 5k verify watchdog interval so a
        # violation is attributed by the sanitizer, not the watchdog
        machine.attach_sanitizer(Sanitizer(mode=sanitize, interval=500))
    if diag_dir is not None:
        machine.diag_dir = diag_dir
    if attrib is not None:
        machine.attach_attrib(attrib)
    addr_map = [machine.alloc.word() for _ in range(program.num_vars)]
    warm_addrs = (
        [addr_map[v] for v in program.warm_vars] if warmup else []
    )
    for body in program.threads:
        machine.spawn(_thread_fn(body, addr_map, warm_addrs))
    try:
        result = machine.run(budget=budget)
        run.completed = result.completed
        run.cycles = result.cycles
    except SanitizerError as exc:
        run.sanitizer = str(exc)
        run.cycles = machine.queue.now
    except DeadlockError as exc:
        run.deadlock = str(exc)
        run.cycles = machine.queue.now
    except SimulatorError as exc:  # replay divergence, protocol bug
        run.error = f"{type(exc).__name__}: {exc}"
        run.cycles = machine.queue.now
    events = machine.recorder.events if machine.recorder else []
    run.scv = find_scv(events)
    run.recoveries = machine.stats.wplus_recoveries
    run.bounces = machine.stats.bounces
    run.storm_demotions = sum(machine.stats.storm_demotions)
    for core in machine.cores:
        for _po, payload in core.notes:
            idx, value = payload
            run.observed[(core.core_id, idx)] = value
    machine.dispose()
    return run


def check_invariants(run: ProgramRun) -> List[str]:
    """Violations of the paper's claims in *run* (empty = all held).

    Only meaningful for runs with recovery enabled; the naive Fig. 3a
    configuration (``recovery=False``) deadlocks by design.
    """
    violations: List[str] = []
    if run.error is not None:
        violations.append(f"simulator-error: {run.error}")
    if run.sanitizer is not None:
        violations.append(f"sanitizer: {run.sanitizer}")
    if run.deadlock is not None:
        violations.append(f"deadlock: {run.deadlock}")
    elif not run.completed and run.error is None and run.sanitizer is None:
        violations.append(
            f"livelock: run hit the cycle cap at {run.cycles} cycles"
        )
    if run.program.has_fences and run.scv_found:
        violations.append(
            f"scv-under-fences: cycle of length {len(run.scv)} despite "
            f"correct fencing under {run.design}"
        )
    if run.recoveries and run.scv_found:
        violations.append(
            f"recovery-left-non-sc: {run.recoveries} W+ recoveries but "
            f"the surviving execution is not SC"
        )
    return violations
