"""Farm clients: the repo's sweeps as durable campaigns.

:func:`campaign_rows` drives a :class:`CampaignSpec` through
:func:`run_campaign` and hands its rows back in grid order, so each
sweep (``run_matrix``'s workload grid, the chaos scenario sweep,
``repro synth``'s designs) only translates its grid into a spec and
the rows back into its own shape.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List, Optional, Sequence

from repro.common.errors import EXIT_BY_ERROR, ConfigError
from repro.common.params import FenceDesign
from repro.farm.campaign import collect, run_campaign
from repro.farm.spec import CampaignSpec
from repro.farm.store import LEASE_EXPIRED, FarmStore
from repro.farm.worker import FarmConfig


def default_farm_workers() -> int:
    env = os.environ.get("REPRO_FARM_WORKERS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return max(1, min(8, (os.cpu_count() or 2) - 1))


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
    class its first recorded error names when that is a key of
    :data:`EXIT_BY_ERROR` (the CLI exit code stays the job's own),
    else :class:`ConfigError`; the message names the first failed
    jobs and their errors.
    """
    db = store_path(db)
    if not db:
        with tempfile.TemporaryDirectory(prefix="repro-farm-") as tmp:
            return campaign_rows(os.path.join(tmp, "farm.sqlite"), spec,
                                 workers, config)
    workers = default_farm_workers() if workers is None else workers
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
    jobs = spec.expand()
    missing = [job for job in jobs if job.content_key() not in rows]
    if not missing:
        return [rows[job.content_key()] for job in jobs]
    with FarmStore(db) as store:
        errors = store.errors(cid)
    failed = [(job, errors[job.content_key()]) for job in missing
              if job.content_key() in errors]
    detail = "".join(
        f"; {job.workload}/{FenceDesign[job.design].value}/{job.cores}c"
        f"/s{job.seed}: {err}" for job, err in failed[:3])
    if len(failed) > 3:
        detail += f"; ... {len(failed) - 3} more"
    first = failed[0][1].partition(":")[0] if failed else ""
    cls = next((c for c in EXIT_BY_ERROR if c.__name__ == first),
               ConfigError)
    raise cls(f"farm campaign {cid}: {len(missing)} unproduced job(s)"
              + detail)


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

    spec = CampaignSpec.make(
        "chaos", scenarios, designs, seeds=seeds, core_counts=[0],
        scale=0.0, config={"sanitize": sanitize},
    )
    rows = campaign_rows(db, spec, workers,
                         config=FarmConfig(diag_dir=diag_dir))
    return [_case_from_record(row) for row in rows]


def synth_campaign(config, budget=None) -> CampaignSpec:
    """A :class:`~repro.synth.engine.SynthConfig` as a campaign of one
    ``synth`` job per design: ``(program spec, design, adversary
    seed)``.  The rest of the config and the wall budget (*budget*) ride
    in the job config, so changing either makes new jobs, and every job
    gets the whole budget."""
    blob = config.to_dict()
    for field in ("program", "designs", "seed"):
        del blob[field]
    if budget is not None and budget.max_wall_secs:
        # synthesis consults no event budget (engine._deadline_from_budget)
        blob["budget"] = {"max_wall_secs": budget.max_wall_secs}
    return CampaignSpec.make(
        "synth", [config.program], config.designs, seeds=[config.seed],
        core_counts=[0], scale=0.0, config=blob,
    )


def farm_synthesis(config, budget=None, db: Optional[str] = None,
                   workers: Optional[int] = None):
    """:func:`~repro.synth.engine.run_synthesis`'s report, each design
    run as one farm job (:func:`synth_campaign`) on the store
    :func:`campaign_rows` picks from *db*."""
    from repro.synth.engine import SynthReport

    rows = campaign_rows(db, synth_campaign(config, budget), workers)
    report = SynthReport(config=config, program_info=rows[0]["program"])
    for design, row in zip(config.designs, rows):
        report.designs[design.value] = row["entry"]
        report.total_runs += row["runs"]
        report.simulated_runs += row["simulated_runs"]
    return report
