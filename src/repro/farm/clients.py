"""Farm clients: the repo's sweeps as durable campaigns.

One function per job kind (:func:`matrix_campaign`,
:func:`chaos_campaign`, :func:`synth_campaign`) makes every campaign,
so the same work has one content key whichever command submits it,
and :func:`campaign_rows` runs them all and hands the rows back in
grid order.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import time
from typing import List, Optional, Sequence

from repro.common.errors import EXIT_BY_ERROR, CampaignError, ConfigError
from repro.common.params import FenceDesign
from repro.farm.campaign import collect, run_campaign
from repro.farm.spec import CampaignSpec
from repro.farm.store import LEASE_EXPIRED, FarmStore
from repro.farm.worker import FarmConfig


def default_farm_workers() -> int:
    """``REPRO_FARM_WORKERS`` (0 runs inline), else CPUs − 1 capped at
    8, or 0 where that is under 2: a pool of one runs nothing in
    parallel and pays the fork.  A value that is not a count ≥ 0 is a
    :class:`ConfigError`, which the CLI reports as a usage error."""
    env = os.environ.get("REPRO_FARM_WORKERS")
    if not env:
        workers = min(8, (os.cpu_count() or 2) - 1)
        return workers if workers >= 2 else 0
    if not env.strip().isdecimal():
        raise ConfigError(
            f"REPRO_FARM_WORKERS={env!r}: expected a worker count >= 0 "
            f"(0 runs inline)")
    return int(env)


def store_path(db: Optional[str] = None) -> Optional[str]:
    """The farm store *db* names, else ``REPRO_FARM_DB``'s, else None
    — the one reader of that variable."""
    return db or os.environ.get("REPRO_FARM_DB") or None


class _JobRaised(Exception):
    """A job's run raised: the campaign stops (see campaign_rows)."""


def campaign_rows(db: Optional[str], spec: CampaignSpec,
                  workers: Optional[int] = None,
                  config: Optional[FarmConfig] = None) -> List[dict]:
    """Drive *spec* to completion; its result rows in ``spec.expand()``
    order.

    The store is *db*, else ``REPRO_FARM_DB``'s, else one in a
    temporary directory that lives for the call.  On a named store an
    interrupted campaign resumes and a repeated one is served from the
    result cache.

    A job whose run raises stops the campaign: simulations are
    deterministic, so it would raise again on every worker.  A worker
    that dies mid-job is no such error — its lease expires and the job
    runs again.  A campaign that ends with unproduced jobs raises the
    first of their recorded error classes that :data:`EXIT_BY_ERROR`
    maps, else :class:`CampaignError` (exit 1); the message names the
    first failed jobs and their errors.
    """
    workers = default_farm_workers() if workers is None else workers
    db = store_path(db)
    if not db:
        with tempfile.TemporaryDirectory(prefix="repro-farm-") as tmp:
            return campaign_rows(os.path.join(tmp, "farm.sqlite"), spec,
                                 workers, config)
    cid = spec.campaign_id()
    started = time.time()

    def stop_on_raise(store: FarmStore, _pool) -> None:
        errors = store.errors(cid, since=started)
        if any(err != LEASE_EXPIRED for err in errors.values()):
            raise _JobRaised

    try:
        rows = run_campaign(db, spec, workers=workers, config=config,
                            on_poll=stop_on_raise)
    except _JobRaised:
        rows = collect(db, cid)
    # the jobs (and their cached keys) submit_campaign already built
    jobs = spec.expand()
    missing = [job for job in jobs if job.content_key() not in rows]
    if not missing:
        return [rows[job.content_key()] for job in jobs]
    with FarmStore(db) as store:
        errors = store.errors(cid)
    failed = [(job, errors[job.content_key()]) for job in missing
              if job.content_key() in errors]
    detail = "".join(  # only matrix jobs read a core count
        f"; {job.workload}/{FenceDesign[job.design].value}"
        + (f"/{job.cores}c" if job.kind == "matrix" else "")
        + f"/s{job.seed}: {err}" for job, err in failed[:3])
    if len(failed) > 3:
        detail += f"; ... {len(failed) - 3} more"
    named = {cls.__name__: cls for cls in EXIT_BY_ERROR}
    cls = next((named[err.partition(":")[0]] for _job, err in failed
                if err.partition(":")[0] in named), CampaignError)
    raise cls(f"farm campaign {cid}: {len(missing)} unproduced job(s)"
              + detail)


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
    from repro.faults.chaos import _case_from_record

    rows = campaign_rows(db, chaos_campaign(scenarios, designs, seeds,
                                            sanitize), workers,
                         config=FarmConfig(diag_dir=diag_dir))
    return [_case_from_record(row) for row in rows]


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
    :func:`campaign_rows` picks from *db*."""
    from repro.synth.engine import SynthReport

    row, = campaign_rows(db, synth_campaign(config, budget), workers)
    return SynthReport(
        config=config, program_info=row["program"],
        # the store keeps no key order: the report's is the designs'
        designs={d.value: row["designs"][d.value] for d in config.designs},
        total_runs=row["total_runs"],
        simulated_runs=row["simulated_runs"],
    )
