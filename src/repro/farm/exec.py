"""Execute one :class:`JobSpec` — the farm's kind dispatch table.

Each kind maps onto the existing single-job entry point of its
subsystem, so a farm worker runs *exactly* the code path of a direct
call and the produced row is bit-identical to what that call returns.

Per-job settings ride in ``spec.config`` (canonical JSON, part of the
content key): ``sanitize`` and an optional ``budget`` object
(:class:`RunBudget` fields) so a wedged job degrades gracefully
instead of wedging its worker.  The config is the whole of a job's
settings: an absent key means the kind's default, never the worker's
environment.  A worker-side *diag_dir* is plumbed separately — where
diagnostics land must not change a job's identity.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.common.errors import ConfigError
from repro.farm.spec import JobSpec
from repro.sim.governor import RunBudget


def _budget(cfg: dict) -> Optional[RunBudget]:
    """Per-job budget from the config blob; None runs unbounded.

    Prefer event budgets in campaign configs: an event cutoff is
    deterministic, so a degraded row is still bit-identical across
    workers; a wall cutoff depends on the machine that ran it.
    """
    blob = cfg.get("budget")
    if not blob:
        return None
    return RunBudget(max_wall_secs=blob.get("max_wall_secs"),
                     max_events=blob.get("max_events"))


def _run_matrix_job(spec: JobSpec, diag_dir: Optional[str]) -> dict:
    from repro.eval.runner import run_summary

    cfg = spec.config_dict()
    summary = run_summary(
        spec.workload, spec.design, spec.cores, spec.scale, spec.seed,
        sanitize=cfg.get("sanitize", "off"), budget=_budget(cfg),
    )
    return dataclasses.asdict(summary)


def _run_chaos_job(spec: JobSpec, diag_dir: Optional[str]) -> dict:
    from repro.faults.chaos import run_chaos_case

    cfg = spec.config_dict()
    case = run_chaos_case(
        spec.workload,            # the fault scenario name
        spec.fence_design,
        spec.seed,
        diag_dir=diag_dir,
        sanitize=cfg.get("sanitize", "strict"),
        budget=_budget(cfg),
    )
    return case.to_dict()


def _run_synth_job(spec: JobSpec, diag_dir: Optional[str]) -> dict:
    """One design's synthesis; the config blob holds every
    :class:`SynthConfig` field but the program, designs and seed."""
    from repro.synth.engine import SynthConfig, run_synthesis

    cfg = spec.config_dict()
    fields = {k: v for k, v in cfg.items() if k != "budget"}
    if "cost_seeds" in fields:
        fields["cost_seeds"] = tuple(fields["cost_seeds"])
    report = run_synthesis(
        SynthConfig(
            program=spec.workload,    # the program spec
            designs=(spec.fence_design,),
            seed=spec.seed,           # the adversary-schedule seed
            **fields,
        ),
        budget=_budget(cfg),
    )
    return {
        "program": report.program_info,
        "entry": report.designs[spec.fence_design.value],
        "runs": report.total_runs,
        "simulated_runs": report.simulated_runs,
    }


EXECUTORS: Dict[str, Callable[[JobSpec, Optional[str]], dict]] = {
    "matrix": _run_matrix_job,
    "chaos": _run_chaos_job,
    "synth": _run_synth_job,
}


def execute_job(spec: JobSpec, diag_dir: Optional[str] = None) -> dict:
    """Run *spec* and return its JSON-able result row."""
    try:
        runner = EXECUTORS[spec.kind]
    except KeyError:
        raise ConfigError(
            f"no executor for job kind {spec.kind!r}"
        ) from None
    return runner(spec, diag_dir)
