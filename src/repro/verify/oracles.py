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
from repro.common.params import (
    FenceDesign,
    FenceFlavour,
    FenceRole,
    flavour_for,
)
from repro.common.stats import MachineStats
from repro.core import isa as ops
from repro.fences.base import policy_class
from repro.sim.machine import Machine, WarmState
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

#: the designs whose wf is the bare Bypass Set (§3.3): they part only
#: at a bounce, WS+ and SW+ only at a promoted one (:func:`shares_run`)
BOUNCE_CLASS = frozenset(
    (FenceDesign.WS_PLUS, FenceDesign.SW_PLUS, FenceDesign.W_PLUS))

#: warmup alignment compute block
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
    #: the post-mortem bundle the raised error wrote (needs *diag_dir*)
    diagnostics_path: Optional[str] = None
    #: the machine's counters, as the run left them
    stats: Optional[MachineStats] = None
    #: the dependence events the SCV checker judged
    events: list = field(default_factory=list)
    #: {(tid, op_index): value} for every load the program performed
    observed: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: each program variable's value in memory when the run ended,
    #: indexed by variable
    final: Tuple[int, ...] = ()

    @property
    def scv_found(self) -> bool:
        return self.scv is not None

    @property
    def recoveries(self) -> int:
        return self.stats.wplus_recoveries if self.stats else 0

    @property
    def bounces(self) -> int:
        return self.stats.bounces if self.stats else 0


def _thread_fn(body, addr_map, warm_addrs, warmed=None):
    """Bind one symbolic op list as a runnable generator function.

    *warmed* is a :meth:`Machine.capture_warmup` callback, told as the
    thread yields the ``Compute`` that ends its warm-up."""

    def fn(ctx):
        results = []
        for addr in warm_addrs:
            results.append((yield ops.Load(addr)))
        if warm_addrs:
            if warmed is not None:
                warmed(ctx.tid, results)
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


def _addresses(program: LitmusProgram, alloc) -> List[int]:
    """One simulated word per variable: the ``line_groups`` share a
    line each, every later variable gets a line of its own."""
    addr_map: List[int] = []
    for size in program.line_groups:
        addr_map.extend(alloc.words_of(alloc.alloc_line(size), size))
    while len(addr_map) < program.num_vars:
        addr_map.append(alloc.word())
    return addr_map


class WarmStore:
    """The litmus warm-ups of one call: one ``run_verification``
    campaign, or one ``run_synthesis`` call shared by every design's
    run table.

    Every litmus thread starts by loading each warm variable and then
    computing ``WARMUP_COMPUTE`` instructions.  No fence runs in that
    phase, so it goes the same way under every design.  Nor does it
    store or bounce, so of the point's knobs only the hop latency moves
    it (write-buffer depth, Bypass Set size and retry back-off serve
    what it never does): a warm-up is fixed by that latency, the thread
    count and the warm addresses, which key ``states``.  A key maps to the
    :class:`~repro.sim.machine.WarmState` its first run took, or to
    None where that run's boundary was not quiet; ``restored`` counts
    the runs that started from a stored state instead of simulating
    their warm-up.
    """

    def __init__(self):
        self.states: Dict[tuple, Optional[WarmState]] = {}
        self.restored = 0


def run_program(
    program: LitmusProgram,
    design: FenceDesign,
    point: SchedulePoint = SchedulePoint(),
    faults=None,
    params_overrides: Optional[dict] = None,
    diag_dir: Optional[str] = None,
    sanitize: str = "off",
    attrib=None,
    budget=None,
    warmups: Optional[WarmStore] = None,
) -> ProgramRun:
    """Execute *program* under *design* at *point* and classify it.

    *faults* is a :class:`repro.faults.FaultInjector` to wire into the
    machine (the chaos harness's entry point); *params_overrides* are
    extra :class:`MachineParams` field overrides (e.g.
    ``{"wplus_recovery_enabled": False}`` for the naive Fig. 3a design,
    or a tiny L1 that puts evictions in litmus reach); *diag_dir* enables watchdog
    post-mortem artifacts; *sanitize* attaches a runtime protocol
    sanitizer ("warn" | "strict") as an additional oracle — under a
    strict sanitizer a corrupted machine state is classified at the
    first violating cycle instead of surfacing later as a
    deadlock/livelock at the cycle cap.

    *attrib* is an optional :class:`repro.obs.CycleAttribution` wired
    into the machine before the run (chaos postmortems attribute the
    cycles of a failing case to fence components).

    *budget* is an optional :class:`~repro.sim.governor.RunBudget`
    bounding the run by wall time / events with a graceful degraded
    cutoff — farm workers set one so a wedged case can never wedge
    its worker process.

    *warmups* is the call's :class:`WarmStore`: the run restores its
    warm-up from it, or takes the warm-up into it.  It is not used
    where any of the other options is set (the scope of
    :func:`shares_run`): the state it keeps holds no probe, and a
    fault or an override may move the warm-up.
    """
    run = ProgramRun(program=program, design=design, point=point)
    params = point.params(design, program.num_threads)
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
    addr_map = _addresses(program, machine.alloc)
    warm_addrs = [addr_map[v] for v in program.warm_vars]
    warm = key = warmed = None
    if warmups is not None and warm_addrs and faults is None \
            and not params_overrides and diag_dir is None \
            and sanitize == "off" and attrib is None and budget is None:
        key = (point.mesh_hop_cycles, program.num_threads,
               tuple(warm_addrs))
        if key in warmups.states:
            warm, key = warmups.states[key], None
        else:
            warmed = machine.capture_warmup()
    for body in program.threads:
        machine.spawn(_thread_fn(body, addr_map, warm_addrs, warmed))
    if warm is not None:
        machine.restore_warmup(warm)
        warmups.restored += 1
    try:
        result = machine.run(budget=budget)
        run.completed = result.completed
        run.cycles = result.cycles
    except SanitizerError as exc:
        run.sanitizer = str(exc)
        run.diagnostics_path = exc.diagnostics_path
        run.cycles = machine.queue.now
    except DeadlockError as exc:
        run.deadlock = str(exc)
        run.diagnostics_path = exc.diagnostics_path
        run.cycles = machine.queue.now
    except SimulatorError as exc:  # replay divergence, protocol bug
        run.error = f"{type(exc).__name__}: {exc}"
        run.cycles = machine.queue.now
    run.stats = machine.stats
    run.events = machine.recorder.events if machine.recorder else []
    run.scv = find_scv(run.events)
    for core in machine.cores:
        for _po, payload in core.notes:
            idx, value = payload
            run.observed[(core.core_id, idx)] = value
    run.final = tuple(machine.image.peek(addr) for addr in addr_map)
    if key is not None:
        warmups.states[key] = machine.warm_state
    machine.dispose()
    return run


def design_inert(program: LitmusProgram, design: FenceDesign) -> bool:
    """Does *program*'s run at any point not depend on *design*?

    True when the program has no fence, or when *design*'s policy runs
    a conventional sf (``FencePolicy.conventional_sf``: S+, WS+ and
    SW+) and every fence role maps to the sf under it.  This is exact:
    the designs differ only through a wf (its BS, Order promotion,
    checkpoint), a bounce (which needs a remote BS entry, so a wf), a
    W+ recovery (which needs a bounce), a Wee load check (which stalls
    only while a fence is pending) and a non-default ``sf_base_cost``
    (l-mf) or strong-fence protocol (C-fence).  A fenceless program
    executes none of these under any design, and S+, WS+ and SW+ run
    an sf through the same core path at the same base cost.  So two
    designs for which one program is design-inert produce the same
    ``ProgramRun`` at the same point, field for field, apart from its
    ``design`` label: callers may simulate it once and relabel it with
    ``dataclasses.replace(run, design=...)``.

    Scope: a run with no sanitizer attached (its checks are per
    design, and a strict one ends the run at a design-specific
    violation) and no fault other than the schedule point's own NoC
    jitter (``point.injector()``, whose delays hit the same messages
    under every design; chaos faults bounce, time out and recover).
    """
    roles = program.fence_roles
    if not roles:
        return True
    return policy_class(design).conventional_sf and all(
        flavour_for(design, role) is FenceFlavour.SF for role in roles)


def flavoured(program: LitmusProgram, design: FenceDesign) -> LitmusProgram:
    """*program* with each fence's role replaced by the flavour *design*
    runs it as: a wf becomes a critical-role fence, an sf a standard
    one.  Under WS+ and SW+, whose roles name their flavours, it runs
    the fences *program* runs under *design*, so it names the fences a
    run executes whatever design asked for it."""
    named = {role: FenceRole.CRITICAL
             if flavour_for(design, role) is FenceFlavour.WF
             else FenceRole.STANDARD for role in program.fence_roles}
    if all(role is name for role, name in named.items()):
        return program
    return program.with_threads(
        [ops.Fence(named[op.role]) if isinstance(op, ops.Fence) else op
         for op in body]
        for body in program.threads)


def shares_run(program: LitmusProgram, run: ProgramRun,
               design: FenceDesign) -> bool:
    """Is the finished *run* also *program*'s run under *design*?

    *run* may be another design's run of another program; the answer
    is True only when both execute the same fences with the same
    flavours (:func:`flavoured`) and one of these holds:

    * the same design, or both runs are :func:`design_inert`;
    * WS+ and SW+, and *run* completed with ``order_ops ==
      cond_order_ops == cond_order_failures == 0``.  SW+ departs from
      WS+ only through ``conditional`` and ``fine_grain_bs``;
      ``conditional`` is read only when a bouncing store is promoted
      (``mark_ordered_upto``, ``on_pre_store_bounce``), and the word
      masks of a fine-grain BS only by ``BypassSet.true_sharing``,
      which only an ordered invalidation calls.  A completed run that
      promoted a store has issued an Order or a Conditional Order for
      it.
    * W+ and WS+ or SW+, and *run* completed with ``stats.bounces ==
      0``.  W+'s deadlock monitor, timeout and rollback are reached only
      through a bounce (``on_bs_bounce``, ``_drain_bounced``), its
      checkpoint and replay log change no timing, and without a bounce
      WS+ and SW+ promote nothing.  An unfinished run may have bounced
      a request whose transaction never resolved, so it is never
      shared.

    Each rule is exact: the two runs take the same steps up to the
    event the rule excludes, so callers may relabel *run* with
    ``dataclasses.replace(run, design=..., program=...)``.  Scope: that
    of :func:`design_inert` (no sanitizer; no fault but
    ``point.injector()``, whose jitter decisions are keyed by the
    message, and the two runs send the same messages).
    """
    if design is not run.design and not (
            design_inert(program, design)
            and design_inert(run.program, run.design)):
        pair = {design, run.design}
        if not run.completed or not pair <= BOUNCE_CLASS:
            return False
        stats = run.stats
        if FenceDesign.W_PLUS in pair:
            if stats.bounces:
                return False
        elif stats.order_ops or stats.cond_order_ops or \
                stats.cond_order_failures:
            return False
    if program is run.program:  # verify's case: compare the roles only
        return all(flavour_for(design, role) is flavour_for(run.design, role)
                   for role in program.fence_roles)
    return flavoured(program, design) == flavoured(run.program, run.design)


def check_invariants(run: ProgramRun) -> List[str]:
    """Violations of the paper's claims in *run* (empty = all held).

    Only meaningful for runs with recovery enabled; the naive Fig. 3a
    configuration (``wplus_recovery_enabled=False``) deadlocks by
    design.
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
