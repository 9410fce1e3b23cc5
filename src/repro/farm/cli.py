"""``repro farm`` — operate the durable experiment farm.

Subcommands::

    repro farm submit --db farm.sqlite --workloads fib,Counter \\
        --designs all --seeds 3 --cores 4 [--run]
    repro farm status --db farm.sqlite [CAMPAIGN]
    repro farm resume --db farm.sqlite CAMPAIGN --workers 2
    repro farm gc     --db farm.sqlite [--prune-cache]

``submit`` registers a workload grid (idempotent: the campaign id is
the spec's content address), built by ``matrix_campaign`` as
``run_matrix`` builds it; chaos and synthesis campaigns start from
``repro chaos|synth --farm-db``.  ``resume`` restarts the coordinator
for any stored campaign.  ``submit --run`` and ``resume`` drive it with
``campaign_rows``, so a failing job exits as under every command.
``gc`` drops finished campaigns' job rows; the result cache is kept
unless ``--prune-cache``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from repro.common.errors import ConfigError
from repro.farm.campaign import submit
from repro.farm.clients import campaign_rows, matrix_campaign, store_path
from repro.farm.spec import CampaignSpec
from repro.farm.store import DEFAULT_QUARANTINE_AFTER, FarmStore
from repro.farm.worker import FarmConfig


def _spec_from_args(args, designs_parser) -> CampaignSpec:
    from repro.sanitizer.core import sanitize_mode

    # an unknown design raises out to repro.cli.main()'s usage error
    designs = designs_parser(args.designs)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if not workloads:
        raise ConfigError("no workloads given")
    return matrix_campaign(
        workloads, designs,
        seeds=range(args.seed_base, args.seed_base + args.seeds),
        core_counts=[int(c) for c in str(args.cores).split(",")],
        scale=args.scale, sanitize=sanitize_mode(args.sanitize),
        max_events=args.max_events,
    )


def _print_status(store: FarmStore, campaign: str) -> None:
    st = store.status(campaign)
    print(f"{campaign}  [{store.campaign_spec(campaign).kind}]  "
          f"{st['done']}/{st['total']} done, {st['leased']} leased, "
          f"{st['pending']} pending, {st['quarantined']} quarantined  "
          f"(attempts {st['attempts']}, duplicates {st['duplicates']})")
    for q in store.quarantined(campaign):
        print(f"    QUARANTINED {q['key'][:12]} "
              f"{q['spec']['workload']}/{q['spec']['design']}"
              f"/r{q['spec']['seed']}: {q['last_error']}")


def _drive(args, spec: CampaignSpec) -> Dict[str, dict]:
    """Run *spec* with :func:`campaign_rows`, whose error for unproduced
    jobs escapes to ``repro.cli.main``, and print its status;
    ``{content_key: row}``."""
    cid = spec.campaign_id()
    config = FarmConfig(lease_secs=args.lease_secs,
                        quarantine_after=args.quarantine_after,
                        diag_dir=args.diag_dir)
    try:
        rows = campaign_rows(args.db, spec, args.workers, config)
        print(f"campaign {cid} complete: {len(rows)} row(s)")
    finally:
        with FarmStore(args.db) as store:
            _print_status(store, cid)
    return {job.content_key(): row for job, row in zip(spec.expand(), rows)}


def cmd_farm(args, designs_parser) -> int:
    try:
        if args.farm_cmd == "submit":
            spec = _spec_from_args(args, designs_parser)
            cid, counts = submit(args.db, spec, diag_dir=args.diag_dir)
            print(f"campaign {cid}: {counts['jobs']} job(s) "
                  f"({counts['new']} new, {counts['cached']} from cache, "
                  f"{counts['existing']} already submitted)")
            if args.run:
                _drive(args, spec)
            return 0
        if args.farm_cmd == "status":
            with FarmStore(args.db) as store:
                targets = ([args.campaign] if args.campaign
                           else [cid for cid, _ in store.campaigns()])
                if not targets:
                    print("no campaigns")
                    return 0
                for cid in targets:
                    _print_status(store, cid)
                quarantined = sum(
                    store.status(cid)["quarantined"] for cid in targets
                )
            return 1 if quarantined else 0
        if args.farm_cmd == "resume":
            with FarmStore(args.db) as store:
                spec = store.campaign_spec(args.campaign)
            rows = _drive(args, spec)
            if args.out and args.out != "-":
                with open(args.out, "w") as fh:
                    json.dump(rows, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print(f"[rows written to {args.out}]")
            return 0
        if args.farm_cmd == "gc":
            with FarmStore(args.db) as store:
                summary = store.gc(prune_cache=args.prune_cache)
            print(f"gc: dropped {summary['campaigns_dropped']} finished "
                  f"campaign(s) ({summary['jobs_dropped']} job row(s)), "
                  f"pruned {summary['results_pruned']} cached result(s)")
            return 0
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"unknown farm subcommand {args.farm_cmd!r}", file=sys.stderr)
    return 2


def add_farm_parser(sub, submit_parents) -> None:
    """*submit_parents*: repro.cli's parent parsers for the flags
    ``farm submit`` shares with other commands (--sanitize, --max-events)."""
    p = sub.add_parser(
        "farm",
        help="durable experiment farm: leased job queue, self-healing "
             "workers, exactly-once campaign results",
    )
    fsub = p.add_subparsers(dest="farm_cmd", required=True)

    def common(sp, diag=True):
        sp.add_argument("--db",
                        default=store_path() or "benchmarks/out/farm.sqlite",
                        help="farm database path (SQLite, WAL; default "
                             "$REPRO_FARM_DB or benchmarks/out/farm.sqlite)")
        if diag:
            sp.add_argument("--diag-dir", default=None, metavar="DIR",
                            help="quarantine bundles and chaos "
                                 "diagnostics land here")

    def drive(sp):
        sp.add_argument("--workers", type=int, default=None,
                        help="worker processes (default "
                             "$REPRO_FARM_WORKERS, else CPUs - 1, at most "
                             "8, or 0 where that is under 2; 0 = inline)")
        sp.add_argument("--lease-secs", type=float,
                        default=FarmConfig.lease_secs)
        sp.add_argument("--quarantine-after", type=int,
                        default=DEFAULT_QUARANTINE_AFTER,
                        help="distinct-worker failures before quarantine")

    p_sub = fsub.add_parser(
        "submit", help="register a workload grid (idempotent); --run "
                       "drives it",
        parents=submit_parents)
    common(p_sub)
    p_sub.add_argument("--workloads", required=True,
                       help="comma list of workloads")
    p_sub.add_argument("--designs", default="all",
                       help="'all' (the paper's five) or a comma list")
    p_sub.add_argument("--seeds", type=int, default=1,
                       help="machine seeds per cell (default 1)")
    p_sub.add_argument("--seed-base", type=int, default=12345)
    p_sub.add_argument("--cores", default="8",
                       help="comma list of core counts (default 8)")
    p_sub.add_argument("--scale", type=float, default=0.5)
    p_sub.add_argument("--run", action="store_true",
                       help="drive the campaign to completion now")
    drive(p_sub)

    p_st = fsub.add_parser("status", help="campaign progress and health")
    common(p_st, diag=False)
    p_st.add_argument("campaign", nargs="?", default=None)

    p_res = fsub.add_parser(
        "resume", help="restart the coordinator for a stored campaign")
    common(p_res)
    p_res.add_argument("campaign")
    drive(p_res)
    p_res.add_argument("--out", default=None, metavar="PATH",
                       help="also dump the campaign's rows as JSON")

    p_gc = fsub.add_parser(
        "gc", help="drop finished campaigns")
    common(p_gc, diag=False)
    p_gc.add_argument("--prune-cache", action="store_true",
                      help="also delete cached results no job references")

