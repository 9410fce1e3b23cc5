"""The ``repro profile`` command: cycle-attribution reports.

Three sources, one report shape:

* ``repro profile run WORKLOAD --design D`` — run with the online
  :class:`~repro.obs.attrib.CycleAttribution` attached (tracing off:
  attribution alone is accumulator writes, no event buffer);
* ``repro profile from-trace T.jsonl`` — replay a PR-3 JSONL trace
  offline (:func:`repro.obs.analyze.replay_attribution`) and add the
  trace-only analytics (episode latency distributions, top stores);
* ``repro profile diff A B`` — attribution trees of two sources
  (designs by default, saved report / trace files when the argument
  names an existing file), diffed component by component so the rows
  *name what moved* (S+ vs W+, faulted vs clean).

Output formats: ``text`` (human tree), ``json`` (the report dict),
``collapsed`` (collapsed-stack lines for flamegraph tooling, e.g.
``flamegraph.pl`` or speedscope).  Every report embeds the
conservation check; a failed check exits 1 — the correctness-oracle
exit code, because a non-conserving tree means the accounting itself
is broken.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.common.errors import EXIT_ORACLE
from repro.obs.attrib import (
    SCHEMA as TREE_SCHEMA,
    conservation_errors,
    diff_trees,
    flatten_node,
)

PROFILE_SCHEMA = "repro.profile/1"


# ---------------------------------------------------------------------------
# report building
# ---------------------------------------------------------------------------


def build_report(tree: Dict[str, object], source: str,
                 provenance: Optional[dict] = None,
                 events: Optional[Dict[str, int]] = None,
                 hot_lines: Optional[List[dict]] = None,
                 wb_peak: Optional[List[int]] = None,
                 analytics: Optional[dict] = None) -> Dict[str, object]:
    errors = conservation_errors(tree)
    report: Dict[str, object] = {
        "schema": PROFILE_SCHEMA,
        "source": source,
        "provenance": provenance,
        "tree": tree,
        "conservation": {"ok": not errors, "errors": errors},
    }
    if events is not None:
        report["events"] = events
    if hot_lines is not None:
        report["hot_lines"] = hot_lines
    if wb_peak is not None:
        report["wb_peak"] = wb_peak
    if analytics is not None:
        report["analytics"] = analytics
    return report


def profile_run(workload: str, design, num_cores: int = 8,
                scale: float = 0.5, seed: int = 12345,
                sanitize: Optional[str] = None,
                label: Optional[str] = None) -> Dict[str, object]:
    """One attributed (untraced) run -> a profile report."""
    from repro.obs import Observability
    from repro.obs.export import run_provenance
    from repro.workloads.base import load_all_workloads, run_workload

    load_all_workloads()
    obs = Observability(trace=False, attrib=True)
    run = run_workload(workload, design, num_cores=num_cores, scale=scale,
                       seed=seed, obs=obs, sanitize=sanitize)
    attrib = obs.attrib
    tree = attrib.tree(label=label or f"{run.name}:{run.design}")
    return build_report(
        tree, "run",
        provenance=run_provenance(run),
        events=attrib.design_events(),
        hot_lines=attrib.top_lines(),
        wb_peak=list(attrib.wb_peak),
    )


def report_from_trace(path: str,
                      label: Optional[str] = None) -> Dict[str, object]:
    """Offline replay of a JSONL trace -> a profile report (plus the
    trace-only analytics a live run cannot compute)."""
    from repro.obs.analyze import (
        episode_latency_distribution,
        load_jsonl,
        replay_attribution,
        top_lines,
        top_stores,
    )

    data = load_jsonl(path)
    prov = data.provenance
    tree = replay_attribution(
        data, label=label or f"{prov.get('workload')}:{prov.get('design')}")
    return build_report(
        tree, "trace",
        provenance=prov,
        hot_lines=top_lines(data),
        analytics={
            "episodes": episode_latency_distribution(data),
            "top_stores": top_stores(data),
        },
    )


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == int(value):
        return f"{int(value):>12,d}"
    return f"{value:>12,.2f}"


def render_text(report: Dict[str, object]) -> str:
    """Human-readable attribution report."""
    tree = report["tree"]
    machine = tree["machine"]
    total = machine["cycles"] or 1  # core-cycles: num_cores * wall
    lines: List[str] = []
    label = tree.get("label") or tree["design"]
    lines.append(
        f"profile: {label} — {tree['num_cores']} core(s), "
        f"{tree['cycles']} cycles ({report['source']})"
    )
    lines.append("machine attribution (core-cycles, % of total):")
    flat = flatten_node(machine)
    rows = [(path, value) for path, value in flat.items()
            if value and not path.endswith(".total") and path != "cycles"]
    rows.sort(key=lambda kv: -abs(kv[1]))
    for path, value in rows:
        lines.append(f"  {path:42s} {_fmt(value)}  {value / total:6.1%}")
    lines.append("per-core (busy / fence / other / idle):")
    for node in tree["cores"]:
        lines.append(
            f"  core {node['core']:<3d} {_fmt(node['busy'])} "
            f"{_fmt(node['fence_stall']['total'])} "
            f"{_fmt(node['other_stall']['total'])} {_fmt(node['idle'])}"
        )
    events = report.get("events")
    if events:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(events.items()))
        lines.append(f"design events: {pairs}")
    hot = report.get("hot_lines")
    if hot:
        lines.append("hottest lines (L1 transaction wait):")
        for row in hot[:5]:
            lines.append(
                f"  line {row['line']:#x}: {row['wait_cycles']} cycles over "
                f"{row['transactions']} transaction(s)"
            )
    analytics = report.get("analytics")
    if analytics and analytics.get("episodes"):
        lines.append("episode latency (count / mean / p90 / max):")
        for name, d in sorted(analytics["episodes"].items()):
            lines.append(
                f"  {name:10s} {d['count']:>6d} / {d['mean']:>9.1f} / "
                f"{d['p90']:>9.1f} / {d['max']:>9.1f}"
            )
    cons = report["conservation"]
    if cons["ok"]:
        lines.append("conservation: OK (leaves sum exactly to each bucket)")
    else:
        lines.append("conservation: FAILED")
        for err in cons["errors"]:
            lines.append(f"  {err}")
    return "\n".join(lines)


def collapsed_stacks(tree: Dict[str, object]) -> List[str]:
    """Collapsed-stack lines (``a;b;c <count>``) for flamegraph tools.

    One stack per core and leaf; counts are rounded to whole cycles
    (flamegraph.pl takes integers).  ``idle`` is clamped at zero — a
    cutoff run's trailing serialization charge can push it negative.
    """
    lines: List[str] = []
    for node in tree["cores"]:
        root = f"core{node['core']}"
        flat = flatten_node(node)
        for path, value in sorted(flat.items()):
            if path in ("cycles",) or path.endswith(".total"):
                continue
            count = int(round(value))
            if count <= 0:
                continue
            stack = ";".join([root] + path.split("."))
            lines.append(f"{stack} {count}")
    return lines


def render_diff_text(diff: Dict[str, object], top: int = 15) -> str:
    base, other = diff["base"], diff["other"]
    lines = [
        f"attribution diff: {base['label'] or base['design']} -> "
        f"{other['label'] or other['design']}",
        f"{'component':42s} {'base':>12s} {'other':>12s} {'delta':>12s}",
    ]
    moved = [r for r in diff["rows"]
             if not r["path"].endswith(".total") and r["path"] != "cycles"]
    for row in moved[:top]:
        lines.append(
            f"{row['path']:42s} {_fmt(row['base'])} {_fmt(row['other'])} "
            f"{row['delta']:>+12,.1f}"
        )
    if len(moved) > top:
        lines.append(f"... {len(moved) - top} more component(s) moved")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI (registered by repro.cli)
# ---------------------------------------------------------------------------


def _emit(args, text: str) -> None:
    if args.out and args.out != "-":
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"[profile written to {args.out}]")
    else:
        print(text)


def _format_report(report: Dict[str, object], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=1, sort_keys=True)
    if fmt == "collapsed":
        return "\n".join(collapsed_stacks(report["tree"]))
    return render_text(report)


def _source_report(args, spec: str, design_parser) -> Dict[str, object]:
    """A diff operand: an existing report/trace file, or a design name
    profiled with the shared run options."""
    if os.path.exists(spec):
        if spec.endswith(".jsonl"):
            return report_from_trace(spec)
        with open(spec) as fh:
            report = json.load(fh)
        if report.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"{spec}: not a {PROFILE_SCHEMA} report "
                f"(schema={report.get('schema')!r})")
        return report
    design = design_parser(spec)
    return profile_run(args.workload, design, num_cores=args.cores,
                       scale=args.scale, seed=args.seed)


def cmd_profile(args, design_parser) -> int:
    from repro.obs.analyze import AnalysisError

    try:
        if args.profile_command == "run":
            report = profile_run(
                args.workload, args.design, num_cores=args.cores,
                scale=args.scale, seed=args.seed,
            )
        elif args.profile_command == "from-trace":
            report = report_from_trace(args.trace)
        else:  # diff
            base = _source_report(args, args.base, design_parser)
            other = _source_report(args, args.other, design_parser)
            for side in (base, other):
                if not side["conservation"]["ok"]:
                    print("conservation FAILED on "
                          f"{side['tree'].get('label')}:")
                    for err in side["conservation"]["errors"]:
                        print(f"  {err}")
                    return EXIT_ORACLE
            diff = diff_trees(
                base["tree"], other["tree"],
                label_base=base["tree"].get("label"),
                label_other=other["tree"].get("label"),
            )
            if args.format == "json":
                _emit(args, json.dumps(diff, indent=1, sort_keys=True))
            else:
                _emit(args, render_diff_text(diff))
            return 0
    except (AnalysisError, ValueError, OSError) as exc:
        import sys

        print(str(exc), file=sys.stderr)
        return 2
    _emit(args, _format_report(report, args.format))
    # a broken conservation invariant is a correctness-oracle failure
    return 0 if report["conservation"]["ok"] else EXIT_ORACLE


def add_profile_parser(sub, design_type) -> None:
    """Register the ``profile`` subcommand on the repro CLI."""
    p = sub.add_parser(
        "profile",
        help="cycle-attribution profiler: run / diff / from-trace",
    )
    psub = p.add_subparsers(dest="profile_command", required=True)

    def common(pp, with_design=True):
        if with_design:
            pp.add_argument("--design", type=design_type,
                            default=design_type("S+"))
        pp.add_argument("--cores", type=int, default=8)
        pp.add_argument("--scale", type=float, default=0.5)
        pp.add_argument("--seed", type=int, default=12345)
        pp.add_argument("--format", default="text",
                        choices=("text", "json", "collapsed"),
                        help="text report, JSON report, or collapsed "
                             "stacks for flamegraph tools")
        pp.add_argument("--out", default=None, metavar="PATH",
                        help="write the output here instead of stdout")

    p_run = psub.add_parser("run", help="profile one workload run")
    p_run.add_argument("workload")
    common(p_run)

    p_diff = psub.add_parser(
        "diff",
        help="diff two attribution trees (designs, report files, or "
             "JSONL traces)",
    )
    p_diff.add_argument("base", help="design name, report .json, or "
                                     "trace .jsonl")
    p_diff.add_argument("other", help="design name, report .json, or "
                                      "trace .jsonl")
    p_diff.add_argument("--workload", default="fib",
                        help="workload for design operands "
                             "(default fib)")
    common(p_diff, with_design=False)

    p_ft = psub.add_parser(
        "from-trace",
        help="replay a JSONL trace into an attribution report",
    )
    p_ft.add_argument("trace")
    common(p_ft, with_design=False)
