"""Farm clients: the repo's sweeps as durable campaigns.

One function per job kind (:func:`matrix_campaign`,
:func:`chaos_campaign`, :func:`synth_campaign`) makes every campaign,
so the same work has one content key whichever command submits it;
:func:`~repro.farm.campaign.run_campaign` runs them all and hands the
rows back in grid order.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.common.params import FenceDesign
from repro.farm.campaign import run_campaign
from repro.farm.spec import CampaignSpec
from repro.farm.worker import FarmConfig


def matrix_campaign(workloads: Sequence[str], designs: Sequence,
                    seeds: Sequence[int], core_counts: Sequence[int],
                    scale: float, sanitize: str = "off",
                    max_events: Optional[int] = None) -> CampaignSpec:
    """A workload grid as ``matrix`` jobs; the config holds only what
    is set (*sanitize* unless ``"off"``, *max_events*)."""
    config = {}
    if sanitize != "off":
        config["sanitize"] = sanitize
    if max_events:
        # an event budget is deterministic (unlike wall time), so a
        # degraded row is still bit-identical across workers
        config["budget"] = {"max_events": max_events}
    return CampaignSpec.make(
        "matrix", workloads, designs, seeds=seeds,
        core_counts=core_counts, scale=scale, config=config,
    )


def chaos_campaign(scenarios: Sequence[str], designs: Sequence,
                   seeds: Sequence[int],
                   sanitize: str = "strict") -> CampaignSpec:
    """A chaos sweep as ``chaos`` jobs: fault scenario × design ×
    injection seed, the mode always in the config."""
    return CampaignSpec.make(
        "chaos", scenarios, designs, seeds=seeds, core_counts=[0],
        scale=0.0, config={"sanitize": sanitize},
    )


def farm_chaos_cases(
    scenarios: Sequence[str],
    designs: Sequence[FenceDesign],
    seeds: Sequence[int],
    db: str = "farm.sqlite",
    workers: Optional[int] = None,
    sanitize: str = "strict",
    diag_dir: Optional[str] = None,
) -> list:
    """The chaos grid as a campaign; :class:`ChaosCase` list in the
    sweep order (scenario-major, then design, then seed — the
    campaign's workload > design > cores > seed with one core count)."""
    from repro.faults.chaos import ChaosCase

    rows = run_campaign(db, chaos_campaign(scenarios, designs, seeds,
                                           sanitize), workers,
                        config=FarmConfig(diag_dir=diag_dir))
    return [ChaosCase(**row) for row in rows]


def synth_campaign(config, budget=None) -> CampaignSpec:
    """A :class:`~repro.synth.engine.SynthConfig` as a campaign of one
    ``synth`` job: ``(program spec, first design, adversary seed)``.
    The rest of the config, the design set (as values, in order) and
    the wall budget (*budget*) ride in the job config, so changing any
    of them makes a new job.  The design slot only names the job (in
    ``farm status`` and error details)."""
    blob = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)
            if f.name not in ("program", "seed")}
    blob["designs"] = [design.value for design in config.designs]
    if budget is not None and budget.max_wall_secs:
        # synthesis consults no event budget (engine._deadline_from_budget)
        blob["budget"] = {"max_wall_secs": budget.max_wall_secs}
    return CampaignSpec.make(
        "synth", [config.program], config.designs[:1], seeds=[config.seed],
        core_counts=[0], scale=0.0, config=blob,
    )


def farm_synthesis(config, budget=None, db: Optional[str] = None,
                   workers: Optional[int] = None):
    """:func:`~repro.synth.engine.run_synthesis`'s report, the whole
    call run as one farm job (:func:`synth_campaign`) on the store
    :func:`~repro.farm.campaign.run_campaign` picks from *db*."""
    from repro.synth.engine import SynthReport

    row, = run_campaign(db, synth_campaign(config, budget), workers)
    return SynthReport(
        config=config, program_info=row["program"],
        # the store keeps no key order: the report's is the designs'
        designs={d.value: row["designs"][d.value] for d in config.designs},
        total_runs=row["total_runs"],
        simulated_runs=row["simulated_runs"],
        warmups_restored=row["warmups_restored"],
    )
