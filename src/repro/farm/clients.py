"""Farm clients: run the existing sweeps as durable campaigns.

Each client translates a legacy grid (``run_matrix``'s workload grid,
the chaos scenario sweep) into a :class:`CampaignSpec`,
drives it through :func:`run_campaign`, and translates the content-
keyed result rows back into exactly the shape the legacy caller
returns — so figure/table/report generators are oblivious to whether a
sweep ran locally or on the farm, and the rows are bit-identical
either way.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common import journal as journal_mod
from repro.common.errors import ConfigError
from repro.common.params import FenceDesign
from repro.farm.campaign import run_campaign
from repro.farm.spec import CampaignSpec
from repro.farm.worker import FarmConfig


def default_farm_workers() -> int:
    env = os.environ.get("REPRO_FARM_WORKERS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return max(1, min(4, (os.cpu_count() or 2) - 1))


def _resolve_workers(workers: Optional[int]) -> int:
    return default_farm_workers() if workers is None else workers


# ----------------------------------------------------------------------
# matrix
# ----------------------------------------------------------------------

def farm_run_matrix(
    names: Sequence[str],
    designs: Sequence[FenceDesign],
    num_cores: int = 8,
    scale: float = 1.0,
    seed: int = 12345,
    core_counts: Optional[Sequence[int]] = None,
    db: str = "farm.sqlite",
    workers: Optional[int] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    overwrite_journal: bool = False,
    config: Optional[FarmConfig] = None,
):
    """``run_matrix`` on the farm; same return shape, same rows.

    The journal (if any) is exported from the store afterwards in the
    runner's JSONL format — append-missing, so an existing journal from
    an interrupted local sweep is completed, not rewritten.  The store,
    not the journal, is the source of truth for resumption.
    """
    from repro.eval.runner import RunSummary, _job_key

    counts = list(core_counts) if core_counts else [num_cores]
    spec = CampaignSpec.make(
        "matrix", names, designs, seeds=[seed], core_counts=counts,
        scale=scale,
    )
    journal_mod.prepare(journal, resume=resume, overwrite=overwrite_journal)
    rows = run_campaign(db, spec, workers=_resolve_workers(workers),
                        config=config)
    results: Dict[Tuple[str, str, int], RunSummary] = {}
    exported: List[Tuple[str, dict]] = []
    missing: List[str] = []
    for job in spec.expand():
        row = rows.get(job.content_key())
        if row is None:
            missing.append(job.content_key())
            continue
        summary = RunSummary(**row)
        results[(summary.name, summary.design, summary.num_cores)] = summary
        legacy_key = _job_key(
            (job.workload, job.design, job.cores, job.scale, job.seed))
        exported.append((legacy_key, row))
    if missing:
        raise ConfigError(
            f"farm campaign {spec.campaign_id()} finished with "
            f"{len(missing)} unproduced job(s) (quarantined?): "
            f"{missing[:3]}..."
        )
    if journal:
        have = set(
            journal_mod.load_keyed(
                journal, key=lambda rec: rec.get("_key")).keys()
        ) if os.path.exists(journal) else set()
        with journal_mod.JournalWriter(journal) as writer:
            for legacy_key, row in exported:
                if legacy_key in have:
                    continue
                rec = dict(row)
                rec["_key"] = legacy_key
                writer.append(rec)
    return results


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------

def farm_chaos_cases(
    scenarios: Sequence[str],
    designs: Sequence[FenceDesign],
    seeds: Sequence[int],
    db: str = "farm.sqlite",
    workers: Optional[int] = None,
    sanitize: str = "strict",
    diag_dir: Optional[str] = None,
    config: Optional[FarmConfig] = None,
) -> list:
    """The chaos grid as a campaign; :class:`ChaosCase` list in the
    legacy sweep order (scenario-major, then design, then seed)."""
    from repro.faults.chaos import _case_from_record

    spec = CampaignSpec.make(
        "chaos", scenarios, designs, seeds=seeds, core_counts=[0],
        scale=0.0, config={"sanitize": sanitize},
    )
    if config is None:
        config = FarmConfig(diag_dir=diag_dir)
    rows = run_campaign(db, spec, workers=_resolve_workers(workers),
                        config=config)
    cases = []
    missing = []
    # legacy order is scenario > design > seed; the campaign expands
    # workload > design > cores > seed with a single core count, so the
    # orders coincide job-for-job
    for job in spec.expand():
        row = rows.get(job.content_key())
        if row is None:
            missing.append(job.content_key())
            continue
        cases.append(_case_from_record(row))
    if missing:
        raise ConfigError(
            f"farm campaign {spec.campaign_id()} finished with "
            f"{len(missing)} unproduced case(s) (quarantined?): "
            f"{missing[:3]}..."
        )
    return cases
