"""``repro farm`` — operate the durable experiment farm.

Subcommands::

    repro farm submit --db farm.sqlite --kind matrix \\
        --workloads fib,Counter --designs all --seeds 3 --cores 4 [--run]
    repro farm submit --kind synth --workloads sb --seed-base 1 --run
    repro farm status --db farm.sqlite [CAMPAIGN]
    repro farm resume --db farm.sqlite CAMPAIGN --workers 2
    repro farm gc     --db farm.sqlite [--prune-cache]

``submit`` is idempotent (the campaign id is the spec's content
address); ``resume`` restarts the coordinator for a stored campaign —
after a crash, after ``submit`` without ``--run``, or just to throw
more workers at it.  ``gc`` releases expired leases and drops finished
campaigns' job rows; the result cache is kept unless ``--prune-cache``.
"""

from __future__ import annotations

import json
import os
import sys

from repro.common.errors import ConfigError
from repro.common.params import FenceDesign
from repro.farm.campaign import run_campaign, submit
from repro.farm.spec import KINDS, CampaignSpec
from repro.farm.store import FarmStore
from repro.farm.worker import FarmConfig
from repro.farm.clients import default_farm_workers


def _spec_from_args(args, designs_parser) -> CampaignSpec:
    # an unknown design raises out to repro.cli.main()'s usage error
    designs = designs_parser(args.designs)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if not workloads:
        raise ConfigError("no workloads/scenarios given")
    config = {}
    if args.sanitize:
        config["sanitize"] = args.sanitize
    if args.max_events:
        # an event budget is deterministic (unlike wall/RSS), so a
        # degraded row is still bit-identical across workers
        config["budget"] = {"max_events": args.max_events}
    return CampaignSpec.make(
        args.kind, workloads, designs,
        seeds=range(args.seed_base, args.seed_base + args.seeds),
        core_counts=[int(c) for c in str(args.cores).split(",")],
        scale=args.scale, config=config,
    )


def _farm_config(args) -> FarmConfig:
    return FarmConfig(
        lease_secs=args.lease_secs,
        quarantine_after=args.quarantine_after,
        diag_dir=args.diag_dir,
    )


def _print_status(store: FarmStore, campaign: str) -> None:
    st = store.status(campaign)
    spec = store.campaign_spec(campaign)
    desc = spec.describe()
    print(f"{campaign}  [{desc['kind']}]  "
          f"{st['done']}/{st['total']} done, {st['leased']} leased, "
          f"{st['pending']} pending, {st['quarantined']} quarantined  "
          f"(attempts {st['attempts']}, duplicates {st['duplicates']})")
    for q in store.quarantined(campaign):
        print(f"    QUARANTINED {q['key'][:12]} "
              f"{q['spec']['workload']}/{q['spec']['design']}"
              f"/r{q['spec']['seed']}: {q['last_error']}")


def _report_run(db: str, cid: str, rows: dict) -> int:
    """Post-run report; exit 1 unless every job really finished (an
    inline ``--workers 0`` drive leaves a failed-with-backoff job
    pending, and quarantined jobs never produce rows)."""
    with FarmStore(db) as store:
        done = store.campaign_done(cid)
        quarantined = store.status(cid)["quarantined"]
        verdict = ("complete" if done and not quarantined
                   else "INCOMPLETE" if not done else "QUARANTINED")
        print(f"campaign {cid} {verdict}: {len(rows)} row(s)")
        _print_status(store, cid)
    return 0 if done and not quarantined else 1


def cmd_farm(args, designs_parser) -> int:
    try:
        if args.farm_cmd == "submit":
            spec = _spec_from_args(args, designs_parser)
            cid, counts = submit(args.db, spec, diag_dir=args.diag_dir)
            print(f"campaign {cid}: {counts['jobs']} job(s) "
                  f"({counts['new']} new, {counts['cached']} from cache, "
                  f"{counts['existing']} already submitted)")
            if args.run:
                rows = run_campaign(
                    args.db, spec, workers=_resolve_workers(args),
                    config=_farm_config(args),
                )
                return _report_run(args.db, cid, rows)
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
            rows = run_campaign(
                args.db, spec, workers=_resolve_workers(args),
                config=_farm_config(args),
            )
            status = _report_run(args.db, args.campaign, rows)
            if args.out and args.out != "-":
                with open(args.out, "w") as fh:
                    json.dump(rows, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print(f"[rows written to {args.out}]")
            return status
        if args.farm_cmd == "gc":
            with FarmStore(args.db) as store:
                summary = store.gc(prune_cache=args.prune_cache)
            print(f"gc: released {summary['released']} expired lease(s), "
                  f"dropped {summary['campaigns_dropped']} finished "
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
                        default=os.environ.get("REPRO_FARM_DB")
                        or "benchmarks/out/farm.sqlite",
                        help="farm database path (SQLite, WAL; default "
                             "$REPRO_FARM_DB or benchmarks/out/farm.sqlite)")
        if diag:
            sp.add_argument("--diag-dir", default=None, metavar="DIR",
                            help="quarantine bundles and chaos "
                                 "diagnostics land here")

    p_sub = fsub.add_parser(
        "submit", help="register a campaign (idempotent); --run drives it",
        parents=submit_parents)
    common(p_sub)
    p_sub.add_argument("--kind", default="matrix", choices=KINDS)
    p_sub.add_argument("--workloads", required=True,
                       help="comma list of workloads (matrix), fault "
                            "scenarios (chaos) or program specs (synth: "
                            "sb, sb3, mp, iriw, shape:SEED)")
    p_sub.add_argument("--designs", default="all",
                       help="'all' (the paper's five) or a comma list")
    p_sub.add_argument("--seeds", type=int, default=1,
                       help="seeds per cell (default 1): machine seeds "
                            "(matrix), injection seeds (chaos) or "
                            "adversary-schedule seeds (synth)")
    p_sub.add_argument("--seed-base", type=int, default=12345)
    p_sub.add_argument("--cores", default="8",
                       help="comma list of core counts (default 8; "
                            "matrix only)")
    p_sub.add_argument("--scale", type=float, default=0.5)
    p_sub.add_argument("--run", action="store_true",
                       help="drive the campaign to completion now")
    p_sub.add_argument("--workers", type=int, default=None,
                       help="worker processes for --run (default "
                            "$REPRO_FARM_WORKERS or cpu-1; 0 = inline)")
    p_sub.add_argument("--lease-secs", type=float, default=15.0)
    p_sub.add_argument("--quarantine-after", type=int, default=3,
                       help="distinct-worker failures before quarantine")

    p_st = fsub.add_parser("status", help="campaign progress and health")
    common(p_st, diag=False)
    p_st.add_argument("campaign", nargs="?", default=None)

    p_res = fsub.add_parser(
        "resume", help="restart the coordinator for a stored campaign")
    common(p_res)
    p_res.add_argument("campaign")
    p_res.add_argument("--workers", type=int, default=None)
    p_res.add_argument("--lease-secs", type=float, default=15.0)
    p_res.add_argument("--quarantine-after", type=int, default=3)
    p_res.add_argument("--out", default=None, metavar="PATH",
                       help="also dump the campaign's rows as JSON")

    p_gc = fsub.add_parser(
        "gc", help="release expired leases, drop finished campaigns")
    common(p_gc, diag=False)
    p_gc.add_argument("--prune-cache", action="store_true",
                      help="also delete cached results no job references")


def _resolve_workers(args) -> int:
    return (default_farm_workers() if args.workers is None
            else args.workers)
