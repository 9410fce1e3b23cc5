"""Workload registry and runner.

Every evaluation workload (Table 3 of the paper) is a :class:`Workload`
subclass registered by name.  ``run_workload`` builds a machine for a
fence design, lets the workload allocate its simulated data and spawn
its threads, runs to completion (or a cycle budget for the
throughput-measured ustm group) and returns the stats.  It owns that
machine: nothing it returns refers to it, so it disposes it on the way
out and the run's memory is freed by reference count.

Workload sizes scale with the ``scale`` argument so tests can run tiny
instances while benchmarks run the full ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.common.params import FenceDesign, MachineParams
from repro.sim.machine import Machine, SimResult


@dataclass
class WorkloadRun:
    """One workload execution and its headline metrics."""

    name: str
    group: str
    design: FenceDesign
    num_cores: int
    result: SimResult
    # run provenance (trace/profile headers; defaults keep hand-built
    # WorkloadRun values in older tests valid)
    seed: int = 12345
    scale: float = 1.0
    sanitize: str = "off"

    @property
    def stats(self):
        return self.result.stats

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def throughput(self) -> float:
        """Committed transactions per mega-cycle (ustm metric)."""
        if not self.result.cycles:
            return 0.0
        return 1e6 * self.stats.txn_commits / self.result.cycles


class Workload:
    """Base class: subclasses define setup() and optionally the cycle
    budget (throughput-measured workloads run for a fixed time)."""

    #: registry key
    name: str = ""
    #: "cilk" | "ustm" | "stamp" | "micro"
    group: str = "micro"
    #: simulated-cycle budget; None = run to completion
    cycle_budget: Optional[int] = None

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def setup(self, machine: Machine) -> None:
        """Allocate simulated data and spawn one thread per core."""
        raise NotImplementedError

    def check(self, machine: Machine) -> None:
        """Optional post-run invariant checks (raise on violation)."""


REGISTRY: Dict[str, Type[Workload]] = {}


def register(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the registry."""
    assert cls.name, f"{cls.__name__} needs a name"
    assert cls.name not in REGISTRY, f"duplicate workload {cls.name}"
    REGISTRY[cls.name] = cls
    return cls


def workloads_in_group(group: str):
    return sorted(
        (cls for cls in REGISTRY.values() if cls.group == group),
        key=lambda cls: cls.name,
    )


def run_workload(
    name: str,
    design: FenceDesign,
    num_cores: int = 8,
    scale: float = 1.0,
    seed: int = 12345,
    params: Optional[MachineParams] = None,
    check: bool = False,
    obs=None,
    sanitize: str = "off",
    budget=None,
) -> WorkloadRun:
    """Build, run and wrap one workload under one fence design.

    *obs* is an optional :class:`repro.obs.Observability` session; it is
    attached to the machine before the run so its tracer/attribution
    cover the whole execution.

    *sanitize* attaches a runtime protocol sanitizer in the given mode
    ("warn" | "strict"); "off" attaches none.  *budget* is an optional
    :class:`repro.sim.governor.RunBudget`; None runs unbounded.  Both
    are values the caller decides: nothing here reads the environment.
    """
    cls = REGISTRY[name]
    workload = cls(scale=scale)
    if params is None:
        params = MachineParams().with_cores(num_cores)
    params = params.with_design(design)
    machine = Machine(params, seed=seed)
    if obs is not None:
        obs.attach(machine)
    if sanitize != "off":
        from repro.sanitizer import Sanitizer

        machine.attach_sanitizer(Sanitizer(mode=sanitize))
    try:
        workload.setup(machine)
        result = machine.run(max_cycles=workload.cycle_budget, budget=budget)
        if check:
            workload.check(machine)
    finally:
        machine.dispose()
    return WorkloadRun(
        name=name,
        group=cls.group,
        design=design,
        num_cores=num_cores,
        result=result,
        seed=seed,
        scale=scale,
        sanitize=sanitize,
    )


def load_all_workloads() -> None:
    """Import every workload module so the registry is populated."""
    from repro.workloads import cilkapps, stamp, ustm  # noqa: F401


#: Rows of the paper's Table 3 (applications used in the evaluation).
TABLE3_ROWS = (
    ("Cilk Apps. (CilkApps)",
     "bucket, cholesky, cilksort, fft, fib, heat, knapsack, lu, matmul, plu"),
    ("STM Microbenchs. (ustm)",
     "Counter, DList, Forest, Hash, List, MCAS, ReadNWrite1, ReadWriteN, "
     "Tree, TreeOverwrite"),
    ("STAMP Apps.",
     "genome, intruder, kmeans, labyrinth, ssca2, vacation"),
)
