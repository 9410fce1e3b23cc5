"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      run one workload under one (or all) fence designs; with
             ``--trace`` / ``--trace-out`` record its timeline too
``litmus``   run a litmus kernel across designs and report outcomes
``verify``   schedule-exploration verification (SCV/deadlock hunting)
``synth``    cost-aware minimal fence placement synthesis per design
``chaos``    fault-injection sweep with SC/progress/recovery oracles
``farm``     durable experiment farm (submit/status/resume/gc)
``figure``   regenerate one of the paper's figures (8, 9, 10, 11, 12)
``table``    regenerate one of the paper's tables (1, 2, 3, 4)
``list``     list registered workloads and designs

Examples::

    python -m repro list
    python -m repro run fib --design WS+ --cores 8 --scale 0.5
    python -m repro run fib --design wplus --trace-out t.json
    python -m repro run Counter --design W+ --scale 0.25 --trace
    python -m repro run TreeOverwrite --all-designs
    python -m repro litmus sb --design W+
    python -m repro verify --designs all --budget 200
    python -m repro synth --program sb --designs all --seed 1
    python -m repro chaos --scenarios all --seeds 20
    python -m repro chaos --scenarios illegal_drop --designs S+ --shrink
    python -m repro figure 9 --scale 0.5
    python -m repro table 4
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.common.errors import (
    EXIT_BY_ERROR,
    EXIT_SANITIZER,
    ConfigError,
)
from repro.common.params import FenceDesign, FenceRole
from repro.eval import figures, tables
from repro.workloads import litmus
from repro.workloads.base import (
    REGISTRY,
    load_all_workloads,
    run_workload,
    workloads_in_group,
)

DESIGN_BY_NAME = {str(d): d for d in FenceDesign}
DESIGN_BY_NAME.update({d.name: d for d in FenceDesign})


def _norm_design_key(value: str) -> str:
    return "".join(ch for ch in value.lower() if ch.isalnum())


#: case/punctuation-insensitive aliases: "wplus", "w+", "WS_PLUS", ...
DESIGN_ALIASES = {}
for _d in FenceDesign:
    DESIGN_ALIASES[_norm_design_key(str(_d))] = _d
    DESIGN_ALIASES[_norm_design_key(_d.name)] = _d
del _d


def _design(value: str) -> FenceDesign:
    design = DESIGN_BY_NAME.get(value)
    if design is None:
        design = DESIGN_ALIASES.get(_norm_design_key(value))
    if design is None:
        raise argparse.ArgumentTypeError(
            f"unknown design {value!r}; choose from "
            f"{', '.join(str(d) for d in FenceDesign)}"
        )
    return design


def cmd_list(_args) -> int:
    load_all_workloads()
    print("fence designs:", ", ".join(str(d) for d in FenceDesign))
    for group in ("cilk", "ustm", "stamp"):
        names = ", ".join(c.name for c in workloads_in_group(group))
        print(f"{group:6s}: {names}")
    print("litmus kernels: sb, sb3, mp, false-sharing")
    return 0


def _print_run(run) -> None:
    s = run.stats
    t = s.total_breakdown()
    total = sum(t.values()) or 1.0
    print(f"{run.name} under {run.design} on {run.num_cores} cores:")
    print(f"  cycles        : {run.cycles}")
    if run.result.completed:
        completed = "yes"
    elif run.result.degraded:
        completed = f"no (degraded: {run.result.degraded_reason})"
    elif s.cutoff_in_recovery:
        # max_cycles landed mid-W+-recovery: a budget artifact, not a hang
        completed = "no (cycle budget hit during W+ recovery)"
    else:
        completed = "no (cycle budget hit)"
    print(f"  completed     : {completed}")
    if run.result.sanitizer_violations:
        print(f"  sanitizer     : {run.result.sanitizer_violations} "
              "violation(s) recorded")
    print(f"  instructions  : {s.total_instructions}")
    print(f"  busy / fence / other stall : "
          f"{t['busy'] / total:.1%} / {t['fence_stall'] / total:.1%} / "
          f"{t['other_stall'] / total:.1%}")
    print("  per-core breakdown (busy / fence / other):")
    cycles = run.cycles or 1
    for cid, b in enumerate(s.breakdown):
        print(f"    core {cid:<3d} {b.busy:>12,.1f} {b.fence_stall:>12,.1f} "
              f"{b.other_stall:>12,.1f}   "
              f"({b.busy / cycles:.0%} / {b.fence_stall / cycles:.0%} / "
              f"{b.other_stall / cycles:.0%})")
    print(f"  sf / wf executed : {s.total_sf} / {s.total_wf}")
    if s.txn_commits or s.txn_aborts:
        print(f"  txn commits/aborts : {s.txn_commits}/{s.txn_aborts} "
              f"({run.throughput:.0f} per Mcycle)")
    if s.tasks_executed:
        print(f"  tasks executed/stolen : {s.tasks_executed}/"
              f"{s.tasks_stolen}")
    if s.bounces or s.order_ops or s.wplus_recoveries:
        print(f"  bounces / orders / CO / recoveries : {s.bounces} / "
              f"{s.order_ops} / {s.cond_order_ops} / {s.wplus_recoveries}")


def _trace_out_path(path: str, design, multi: bool) -> str:
    """Per-design output path when tracing several designs at once."""
    if not multi:
        return path
    base, ext = os.path.splitext(path)
    return f"{base}.{_norm_design_key(str(design))}{ext or '.json'}"


def _export_trace(obs, run, out_path: str, fmt: str) -> None:
    from repro.obs.export import run_provenance, write_chrome_trace, \
        write_jsonl

    label = f"{run.name}:{run.design}"
    provenance = run_provenance(run)
    if fmt == "jsonl":
        write_jsonl(out_path, obs.tracer, label=label,
                    provenance=provenance)
    else:
        write_chrome_trace(out_path, obs.tracer, label=label,
                           provenance=provenance)
    print(f"  [trace written to {out_path} ({fmt})"
          + ("; load it at https://ui.perfetto.dev or chrome://tracing"
             if fmt == "chrome" else "") + "]")


def _run_budget(args):
    """RunBudget from the --max-* flags, or None when none was given.
    ``repro synth`` has no ``--max-events`` (synth/engine.py consults
    the wall and RSS budgets only) and hands the budget whole to each
    design's farm job, so it bounds every design, not the command."""
    max_events = getattr(args, "max_events", None)
    if not (args.max_wall_secs or max_events or args.max_rss_mb):
        return None
    from repro.sim.governor import RunBudget

    return RunBudget(
        max_wall_secs=args.max_wall_secs,
        max_events=max_events,
        max_rss_mb=args.max_rss_mb,
    )


def cmd_run(args) -> int:
    load_all_workloads()
    if args.workload not in REGISTRY:
        print(f"unknown workload {args.workload!r}; try `repro list`",
              file=sys.stderr)
        return 2
    designs = list(FenceDesign) if args.all_designs else [args.design]
    tracing = args.trace or args.trace_out is not None
    budget = _run_budget(args)
    violations = 0
    baseline = None
    for design in designs:
        obs = None
        if tracing:
            from repro.obs import Observability

            obs = Observability()
        run = run_workload(args.workload, design, num_cores=args.cores,
                           scale=args.scale, seed=args.seed,
                           check=args.check, obs=obs,
                           sanitize=args.sanitize, budget=budget)
        violations += run.result.sanitizer_violations
        _print_run(run)
        if obs is not None and args.trace_out is not None:
            _export_trace(
                obs, run,
                _trace_out_path(args.trace_out, design, len(designs) > 1),
                args.trace_format,
            )
        metric = run.throughput if run.group == "ustm" else run.cycles
        if baseline is None:
            baseline = metric or 1
        elif run.group == "ustm":
            print(f"  throughput vs {designs[0]} : {metric / baseline:.2f}x")
        else:
            print(f"  time vs {designs[0]} : {metric / baseline:.2f}x")
        if obs is not None and args.trace:
            from repro.obs.summary import render_trace_summary

            print()
            print(render_trace_summary(obs.tracer, stats=run.stats))
        print()
    # a warn-mode sanitizer records violations instead of raising;
    # they are still failures for scripting purposes
    return EXIT_SANITIZER if violations else 0


def cmd_profile(args) -> int:
    """Cycle-attribution profiler (run / diff / from-trace)."""
    from repro.obs.profile import cmd_profile as profile_main

    return profile_main(args, _design)


LITMUS_KERNELS = {
    "sb": lambda design, seed: litmus.store_buffering(design, seed=seed),
    "sb3": lambda design, seed: litmus.three_thread_cycle(design, seed=seed),
    "mp": lambda design, seed: litmus.message_passing(design, seed=seed),
    "false-sharing": lambda design, seed: litmus.false_sharing_interference(
        design, seed=seed),
}


def cmd_litmus(args) -> int:
    from repro.sim.scv import find_scv

    kernel = LITMUS_KERNELS.get(args.kernel)
    if kernel is None:
        print(f"unknown kernel {args.kernel!r}; choose from "
              f"{', '.join(LITMUS_KERNELS)}", file=sys.stderr)
        return 2
    designs = [args.design] if args.design else list(FenceDesign)
    for design in designs:
        lit = kernel(design, args.seed)
        s = lit.result.stats
        scv = find_scv(lit.result.events)
        observed = {f"P{tid}.{label}": v
                    for (tid, label), v in sorted(lit.observed.items())}
        verdict = "SC VIOLATED" if scv else "SC preserved"
        print(f"{design}: {observed} in {lit.result.cycles} cycles — "
              f"{verdict} (bounces={s.bounces}, orders={s.order_ops}, "
              f"recoveries={s.wplus_recoveries})")
    return 0


def cmd_verify(args) -> int:
    from repro.verify.engine import (
        DEFAULT_REPORT_PATH,
        VerifyConfig,
        run_verification,
    )

    designs = _designs_list(args.designs)
    config = VerifyConfig(
        budget=args.budget,
        designs=designs,
        seed=args.seed,
        shape=args.shape,
        shrink=not args.no_shrink,
    )
    out = args.out if args.out != "-" else None
    report = run_verification(config, out_path=out)
    print(report.summary())
    if out is not None:
        print(f"[report written to {out}]")
    return 1 if report.violations else 0


def _designs_list(value: str):
    """Parse an 'all'-or-comma-list designs argument.  An unknown name
    raises argparse.ArgumentTypeError, which ``main()`` reports as a
    usage error."""
    from repro.verify.oracles import PAPER_DESIGNS

    if value.strip().lower() == "all":
        return PAPER_DESIGNS
    designs = tuple(
        _design(name.strip()) for name in value.split(",") if name.strip()
    )
    if not designs:
        raise argparse.ArgumentTypeError("no designs given")
    return designs


def cmd_synth(args) -> int:
    from repro.eval.tables import render_synth_table
    from repro.farm.clients import farm_synthesis
    from repro.synth import SynthConfig
    from repro.synth.programs import NAMED_PROGRAMS, program_for_spec

    designs = _designs_list(args.designs)
    sanitize = args.sanitize or os.environ.get("REPRO_SANITIZE") or "off"
    config = SynthConfig(
        program=args.program,
        designs=designs,
        seed=args.seed,
        num_points=args.points,
        site_mode=args.sites,
        max_runs=args.max_runs,
        audit=not args.no_audit,
        audit_factor=args.audit_factor,
        sanitize=sanitize,
    )

    print(f"synth: program {args.program!r}, {len(designs)} design(s), "
          f"{args.points} adversary point(s), seed {args.seed}")
    try:
        # a bad --program is a usage error before any job is submitted
        program_for_spec(config.program, seed=config.seed)
        report = farm_synthesis(config, budget=_run_budget(args),
                                db=args.farm_db, workers=args.farm_workers)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        print(f"named programs: {', '.join(NAMED_PROGRAMS)}",
              file=sys.stderr)
        return 2
    for design_value, entry in report.designs.items():
        if entry["status"] != "ok":
            print(f"  {design_value:4s} {entry['status']}")
            continue
        best = entry["placements"][0]
        print(f"  {design_value:4s} {entry['strategy']:10s} "
              f"{entry['candidates_tested']:3d} candidate(s), "
              f"{entry['search_runs']:4d} run(s) -> {best['placement']}")
    print()
    print(render_synth_table(report.to_dict(), report.simulated_runs))
    if args.out != "-":
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        report.write(args.out)
        print(f"[report written to {args.out}]")
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    import json

    from repro.faults.chaos import run_chaos_matrix
    from repro.faults.plan import LEGAL_SCENARIOS, SCENARIOS

    if args.scenarios.strip().lower() == "all":
        scenarios = list(LEGAL_SCENARIOS)
    else:
        scenarios = [s.strip() for s in args.scenarios.split(",")
                     if s.strip()]
        unknown = [s for s in scenarios if s not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}; choose "
                  f"from {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
            return 2
    designs = _designs_list(args.designs)
    seeds = range(args.seed_base, args.seed_base + args.seeds)

    def progress(case):
        verdict = "FAIL" if case.failed else "ok"
        line = (f"  {case.scenario:16s} {case.design:4s} seed={case.seed:<6d} "
                f"{verdict}")
        if case.failed:
            line += f" ({case.violations[0]})"
            if case.shrunk is not None:
                line += f" -> shrunk to {len(case.shrunk)} injection(s)"
        print(line)

    print(f"chaos: {len(scenarios)} scenario(s) x {len(designs)} design(s) "
          f"x {args.seeds} seed(s)")
    report = run_chaos_matrix(
        scenarios, designs, seeds=seeds,
        shrink=args.shrink,
        diag_dir=args.diag_dir,
        progress=progress,
        sanitize=args.sanitize,
        farm_db=args.farm_db or os.environ.get("REPRO_FARM_DB") or None,
        farm_workers=args.farm_workers,
    )
    print(f"{report['total_cases']} case(s): "
          f"{report['failed_legal']} legal failure(s), "
          f"{report['caught_illegal']} illegal scenario(s) caught, "
          f"{report['missed_illegal']} missed")
    if args.out != "-":
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"[report written to {args.out}]")
    return 1 if (report["failed_legal"] or report["missed_illegal"]) else 0


def cmd_figure(args) -> int:
    n = args.number
    if n == 8:
        data = figures.fig8_cilkapps(scale=args.scale, num_cores=args.cores)
        print(figures.render_time_figure(
            data, "Figure 8", "S+ stall ~13%; ~9% average time reduction"))
    elif n in (9, 10):
        data = figures.fig9_fig10_ustm(scale=args.scale,
                                       num_cores=args.cores)
        print(figures.render_fig9(data) if n == 9
              else figures.render_fig10(data))
    elif n == 11:
        data = figures.fig11_stamp(scale=args.scale, num_cores=args.cores)
        print(figures.render_time_figure(
            data, "Figure 11", "WS+ -7%, W+ -19%, Wee -11%"))
    elif n == 12:
        data = figures.fig12_scalability(scale=min(args.scale, 0.5))
        print(figures.render_fig12(data))
    else:
        print("figures: 8, 9, 10, 11, 12", file=sys.stderr)
        return 2
    return 0


def cmd_table(args) -> int:
    n = args.number
    if n == 1:
        print(tables.table1())
    elif n == 2:
        print(tables.table2())
    elif n == 3:
        print(tables.table3())
    elif n == 4:
        data = tables.table4_characterization(scale=args.scale,
                                              num_cores=args.cores)
        print(tables.render_table4(data))
    else:
        print("tables: 1, 2, 3, 4", file=sys.stderr)
        return 2
    return 0


#: Flags more than one command takes, declared once: group -> flag ->
#: the ``add_argument`` keywords of the group's parent parser.
_SHARED_FLAGS = {
    # run, synth, chaos, farm submit
    "sanitize": {
        "--sanitize": dict(
            default=None, choices=("off", "warn", "strict"),
            help="runtime protocol sanitizer mode for every simulation "
                 "the command makes (default: %(default)s; None defers "
                 "to $REPRO_SANITIZE, then off); strict stops at the "
                 "first violation (exit code 5; synth counts it as an "
                 "oracle failure, chaos as a caught case)"),
    },
    # run, synth
    "wall_rss": {
        "--max-wall-secs": dict(
            type=float, default=None, metavar="SECS",
            help="wall-clock budget: cut off gracefully into a degraded "
                 "result instead of running on (synth: per design — "
                 "each design's farm job gets the whole budget, and a "
                 "design that exceeds it is marked exhausted-wall)"),
        "--max-rss-mb": dict(
            type=float, default=None, metavar="MB",
            help="RSS high-water-mark budget (graceful cutoff)"),
    },
    # run, farm submit (per job)
    "events": {
        "--max-events": dict(
            type=int, default=None, metavar="N",
            help="simulated-event budget per run (deterministic "
                 "graceful cutoff)"),
    },
    # synth, chaos
    "farm": {
        "--farm-db": dict(
            default=None, metavar="PATH",
            help="experiment-farm store to run on, where an interrupted "
                 "run resumes and a repeated one is served from the "
                 "result cache (default $REPRO_FARM_DB; without either, "
                 "synth uses a temporary store and chaos its local "
                 "loop)"),
        "--farm-workers": dict(
            type=int, default=None, metavar="N",
            help="farm worker processes (default $REPRO_FARM_WORKERS, "
                 "else CPUs - 1, at most 8; 0 = inline)"),
    },
}


def _parent(group: str) -> argparse.ArgumentParser:
    """The parent parser of one shared flag group — a fresh one per
    command, because a command's ``set_defaults`` rewrites the defaults
    of the action objects it inherited."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _SHARED_FLAGS[group].items():
        parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asymmetric Memory Fences (ASPLOS 2015) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and designs")

    p_run = sub.add_parser(
        "run", help="run one workload",
        parents=[_parent("sanitize"), _parent("wall_rss"), _parent("events")])
    p_run.add_argument("workload")
    p_run.add_argument("--design", type=_design,
                       default=FenceDesign.S_PLUS)
    p_run.add_argument("--all-designs", action="store_true")
    p_run.add_argument("--cores", type=int, default=8)
    p_run.add_argument("--scale", type=float, default=0.5)
    p_run.add_argument("--seed", type=int, default=12345)
    p_run.add_argument("--check", action="store_true",
                       help="run the workload's invariant checks")
    p_run.add_argument("--trace", action="store_true",
                       help="record an episode trace and print its summary")
    p_run.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record a trace and export it to PATH "
                            "(implies tracing)")
    p_run.add_argument("--trace-format", default="chrome",
                       choices=("chrome", "jsonl"),
                       help="export format for --trace-out "
                            "(default: chrome trace_event JSON)")

    from repro.obs.profile import add_profile_parser

    add_profile_parser(sub, _design)

    p_lit = sub.add_parser("litmus", help="run a litmus kernel")
    p_lit.add_argument("kernel", choices=sorted(LITMUS_KERNELS))
    p_lit.add_argument("--design", type=_design, default=None)
    p_lit.add_argument("--seed", type=int, default=1)

    p_ver = sub.add_parser(
        "verify",
        help="schedule-exploration verification (SCV/deadlock hunting)",
    )
    p_ver.add_argument(
        "--designs", default="all",
        help="'all' (the paper's five) or a comma list, e.g. 'S+,W+'",
    )
    p_ver.add_argument("--budget", type=int, default=200,
                       help="total simulator runs to spend")
    p_ver.add_argument("--seed", type=int, default=12345)
    p_ver.add_argument("--shape", default=None,
                       choices=("sb", "mp", "iriw", "random"),
                       help="restrict generation to one program shape")
    p_ver.add_argument("--no-shrink", action="store_true",
                       help="skip minimizing the first SCV finding")
    p_ver.add_argument(
        "--out", default="benchmarks/out/verify_report.json",
        help="JSON report path ('-' to skip writing)",
    )

    p_syn = sub.add_parser(
        "synth",
        help="synthesize minimal-cost SC-safe fence placements per design",
        parents=[_parent("sanitize"), _parent("wall_rss"), _parent("farm")],
    )
    p_syn.add_argument(
        "--program", default="sb",
        help="named program (sb, sb3, mp, iriw) or 'shape:SEED' drawn "
             "from the verify generator (e.g. random:7)",
    )
    p_syn.add_argument(
        "--designs", "--design", default="all", dest="designs",
        help="'all' (the paper's five) or a comma list, e.g. 'S+,W+'",
    )
    p_syn.add_argument("--seed", type=int, default=1,
                       help="adversary-schedule seed (default 1); the "
                            "report is bit-identical for a fixed "
                            "(program, designs, seed)")
    p_syn.add_argument("--points", type=int, default=12,
                       help="adversary schedule points per search "
                            "(audit re-verifies at --audit-factor x "
                            "this; default 12)")
    p_syn.add_argument("--sites", default=None,
                       choices=("auto", "annotated"),
                       help="fence-site extraction (default: 'annotated' "
                            "when the program carries fences, else "
                            "'auto' store->load boundaries)")
    p_syn.add_argument("--max-runs", type=int, default=4000,
                       help="oracle-verdict budget per design, search "
                            "and audit each; a verdict already in the "
                            "run table still counts (default 4000)")
    p_syn.add_argument("--no-audit", action="store_true",
                       help="skip the double-budget re-verification and "
                            "weakening checks")
    p_syn.add_argument("--audit-factor", type=int, default=2,
                       help="audit at this multiple of --points "
                            "(default 2)")
    p_syn.add_argument(
        "--out", default="benchmarks/out/synth_report.json",
        help="JSON report path ('-' to skip writing)",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: scenario x design x seed matrix "
             "checked against the SC/progress/recovery oracles",
        parents=[_parent("sanitize"), _parent("farm")],
    )
    # illegal plans are caught at the first violating cycle, not at timeout
    p_chaos.set_defaults(sanitize="strict")
    p_chaos.add_argument(
        "--scenarios", default="all",
        help="'all' (every legal built-in scenario) or a comma list; "
             "the deliberately broken 'illegal_drop' must be named "
             "explicitly",
    )
    p_chaos.add_argument(
        "--designs", default="all",
        help="'all' (the paper's five) or a comma list, e.g. 'S+,W+'",
    )
    p_chaos.add_argument("--seeds", type=int, default=20,
                         help="seeds per (scenario, design) cell")
    p_chaos.add_argument("--seed-base", type=int, default=1,
                         help="first seed of the range (default 1)")
    p_chaos.add_argument("--shrink", action="store_true",
                         help="ddmin each failing case to a minimal "
                              "injection subset")
    p_chaos.add_argument("--diag-dir", default=None, metavar="DIR",
                         help="write watchdog/sanitizer post-mortem "
                              "bundles here")
    p_chaos.add_argument(
        "--out", default="benchmarks/out/chaos_report.json",
        help="JSON report path ('-' to skip writing)",
    )

    from repro.farm.cli import add_farm_parser

    add_farm_parser(sub, [_parent("sanitize"), _parent("events")])

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int)
    p_fig.add_argument("--scale", type=float, default=0.5)
    p_fig.add_argument("--cores", type=int, default=8)

    p_tab = sub.add_parser("table", help="regenerate a paper table")
    p_tab.add_argument("number", type=int)
    p_tab.add_argument("--scale", type=float, default=0.5)
    p_tab.add_argument("--cores", type=int, default=8)
    return parser


def cmd_farm(args) -> int:
    from repro.farm.cli import cmd_farm as farm_main

    return farm_main(args, _designs_list)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "profile": cmd_profile,
        "litmus": cmd_litmus,
        "verify": cmd_verify,
        "synth": cmd_synth,
        "chaos": cmd_chaos,
        "farm": cmd_farm,
        "figure": cmd_figure,
        "table": cmd_table,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # stdout reader went away (e.g. `... | head`); not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except argparse.ArgumentTypeError as exc:
        # a list-valued flag, parsed by the command (_designs_list)
        print(str(exc), file=sys.stderr)
        return 2
    except tuple(EXIT_BY_ERROR) as exc:
        code, label = next(row for err, row in EXIT_BY_ERROR.items()
                           if isinstance(exc, err))
        print(f"{label}: {exc}", file=sys.stderr)
        diagnostics_path = getattr(exc, "diagnostics_path", None)
        if diagnostics_path:
            print(f"[diagnostics written to {diagnostics_path}]",
                  file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
