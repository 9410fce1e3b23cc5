"""Regeneration of the paper's figures (8-12).

Each ``figN_*`` function runs the experiment grid and returns a plain
data structure; ``render_figN`` turns it into the text report printed
by the benchmark harness.  Shape expectations from the paper (used by
the benches and recorded in EXPERIMENTS.md):

* Fig. 8  — CilkApps execution time: S+ spends ~13 % in fence stall;
  WS+/W+/Wee eliminate most of it; total time drops ~9 % on average.
* Fig. 9  — ustm throughput: WS+ +38 %, W+ +58 %, Wee +14 % over S+.
* Fig. 10 — ustm per-transaction cycles: S+ ~54 % fence stall; WS+ and
  W+ cut transaction cycles by ~24 % / ~35 %; Wee only ~11 %.
* Fig. 11 — STAMP execution time: WS+ −7 %, W+ −19 %, Wee −11 %;
  intruder favours W+ over WS+; labyrinth barely moves.
* Fig. 12 — fence-stall ratio vs S+ stays flat from 4 to 32 cores.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.common.params import FenceDesign
from repro.eval import report
from repro.eval.runner import RunSummary, run_matrix
from repro.workloads.base import load_all_workloads, workloads_in_group

#: design order used in every figure (the paper's bar order, left→right
#: is Wee, W+, WS+, S+; we print S+ first as the baseline)
DESIGNS = (
    FenceDesign.S_PLUS,
    FenceDesign.WS_PLUS,
    FenceDesign.W_PLUS,
    FenceDesign.WEE,
)

BASELINE = str(FenceDesign.S_PLUS)


def group_apps(group: str, limit: Optional[int] = None) -> List[str]:
    load_all_workloads()
    names = [cls.name for cls in workloads_in_group(group)]
    return names[:limit] if limit else names


# ---------------------------------------------------------------------------
# Figures 8 and 11 — execution time with cycle breakdown
# ---------------------------------------------------------------------------


def _time_breakdown_data(
    group: str,
    scale: float,
    num_cores: int,
    seed: int,
    apps: Optional[Sequence[str]] = None,
) -> dict:
    names = list(apps) if apps else group_apps(group)
    runs = run_matrix(names, DESIGNS, num_cores=num_cores, scale=scale,
                      seed=seed)
    entries = []
    averages: Dict[str, List[float]] = {str(d): [] for d in DESIGNS}
    stall_fracs: Dict[str, List[float]] = {str(d): [] for d in DESIGNS}
    for name in names:
        base = runs[(name, BASELINE, num_cores)]
        base_cycles = max(1, base.cycles)
        for design in DESIGNS:
            r = runs[(name, str(design), num_cores)]
            norm = r.cycles / base_cycles
            total = max(1.0, r.total)
            entries.append({
                "app": name,
                "design": str(design),
                "normalized_time": norm,
                # category sizes scaled so the bar length equals the
                # normalized execution time (the paper's presentation)
                "busy": norm * r.busy / total,
                "fence_stall": norm * r.fence_stall / total,
                "other_stall": norm * r.other_stall / total,
            })
            averages[str(design)].append(norm)
            stall_fracs[str(design)].append(r.fence_stall / total)
    return {
        "group": group,
        "apps": names,
        "seed": seed,
        "entries": entries,
        "avg_normalized_time": {
            d: report.mean(v) for d, v in averages.items()
        },
        "avg_fence_stall_fraction": {
            d: report.mean(v) for d, v in stall_fracs.items()
        },
    }


def fig8_cilkapps(scale: float = 1.0, num_cores: int = 8, seed: int = 12345,
                  apps: Optional[Sequence[str]] = None) -> dict:
    """Figure 8: execution time of CilkApps under S+/WS+/W+/Wee."""
    return _time_breakdown_data("cilk", scale, num_cores, seed, apps)


def fig11_stamp(scale: float = 1.0, num_cores: int = 8, seed: int = 12345,
                apps: Optional[Sequence[str]] = None) -> dict:
    """Figure 11: execution time of STAMP under S+/WS+/W+/Wee."""
    return _time_breakdown_data("stamp", scale, num_cores, seed, apps)


def render_time_figure(data: dict, figure_name: str, paper_note: str) -> str:
    chart = report.render_breakdown_chart(
        data["entries"],
        f"{figure_name} — execution time of {data['group']} "
        f"(normalized to S+)",
    )
    avg_rows = [
        (d,
         f"{data['avg_normalized_time'][d]:.3f}",
         f"{100 * data['avg_fence_stall_fraction'][d]:.1f}%")
        for d in data["avg_normalized_time"]
    ]
    table = report.format_table(
        ("design", "avg normalized time", "avg fence-stall fraction"),
        avg_rows,
    )
    return f"{chart}\n\n{table}\n\npaper: {paper_note}"


# ---------------------------------------------------------------------------
# Figures 9 and 10 — ustm throughput and per-transaction breakdown
# ---------------------------------------------------------------------------


def fig9_fig10_ustm(scale: float = 1.0, num_cores: int = 8,
                    seed: int = 12345,
                    apps: Optional[Sequence[str]] = None) -> dict:
    """Figures 9 + 10 share one experiment (same runs, two views)."""
    names = list(apps) if apps else group_apps("ustm")
    runs = run_matrix(names, DESIGNS, num_cores=num_cores, scale=scale,
                      seed=seed)
    tput_entries, txn_entries = [], []
    tput_ratio: Dict[str, List[float]] = {str(d): [] for d in DESIGNS}
    txn_ratio: Dict[str, List[float]] = {str(d): [] for d in DESIGNS}
    for name in names:
        base = runs[(name, BASELINE, num_cores)]
        base_tput = max(base.throughput, 1e-9)
        # a commit-less run reports inf cycles/commit; treat it as "no
        # data" (0.0) here so one truncated row can't blow up the ratios
        base_txn = base.txn_cycles_per_commit
        base_txn = max(0.0 if math.isinf(base_txn) else base_txn, 1e-9)
        for design in DESIGNS:
            r = runs[(name, str(design), num_cores)]
            ratio = r.throughput / base_tput
            tput_entries.append({
                "app": name, "design": str(design), "throughput_ratio": ratio,
                "throughput": r.throughput,
                "commits": r.stats.get("txn_commits", 0),
                "aborts": r.stats.get("txn_aborts", 0),
            })
            tput_ratio[str(design)].append(ratio)
            # Fig 10: per-transaction cycles, broken down with the
            # machine-level category fractions (ustm time is almost
            # entirely transactional, see DESIGN.md).
            per_txn = r.txn_cycles_per_commit
            if math.isinf(per_txn):
                per_txn = 0.0
            total = max(1.0, r.total)
            norm = per_txn / base_txn
            entry = {
                "app": name, "design": str(design),
                "normalized_time": norm,
                "busy": norm * r.busy / total,
                "fence_stall": norm * r.fence_stall / total,
                "other_stall": norm * r.other_stall / total,
            }
            if r.attrib:
                # profiler attribution: *which* fence component the
                # stall is (drain vs bounce vs serialize vs recovery),
                # same normalization as the coarse buckets above
                entry["fence_components"] = {
                    path[len("fence_stall."):]: norm * value / total
                    for path, value in sorted(r.attrib.items())
                    if path.startswith("fence_stall.")
                    and not path.endswith(".total") and value
                }
            txn_entries.append(entry)
            txn_ratio[str(design)].append(norm)
    # machine attribution summed per design (fence components only):
    # the Fig.10 companion table naming where fence time actually goes
    fence_attrib: Dict[str, Dict[str, float]] = {}
    for name in names:
        for design in DESIGNS:
            r = runs[(name, str(design), num_cores)]
            if not r.attrib:
                continue
            acc = fence_attrib.setdefault(str(design), {})
            for path, value in r.attrib.items():
                if (path.startswith("fence_stall.")
                        and not path.endswith(".total") and value):
                    key = path[len("fence_stall."):]
                    acc[key] = acc.get(key, 0.0) + value
    return {
        "apps": names,
        "seed": seed,
        "throughput_entries": tput_entries,
        "txn_entries": txn_entries,
        "avg_throughput_ratio": {
            d: report.mean(v) for d, v in tput_ratio.items()
        },
        "avg_txn_cycles_ratio": {
            d: report.mean(v) for d, v in txn_ratio.items()
        },
        "fence_attrib": fence_attrib,
    }


def render_fig9(data: dict) -> str:
    chart = report.render_ratio_chart(
        [
            {"app": e["app"], "design": e["design"],
             "ratio": e["throughput_ratio"]}
            for e in data["throughput_entries"]
        ],
        "Figure 9 — transactional throughput of ustm (normalized to S+)",
        value_key="ratio",
    )
    table = report.format_table(
        ("design", "avg throughput vs S+"),
        [(d, f"{v:.2f}x") for d, v in data["avg_throughput_ratio"].items()],
    )
    return (f"{chart}\n\n{table}\n\n"
            "paper: WS+ +38%, W+ +58%, Wee +14% over S+")


def render_fig10(data: dict) -> str:
    chart = report.render_breakdown_chart(
        data["txn_entries"],
        "Figure 10 — per-transaction cycle breakdown of ustm "
        "(normalized to S+)",
    )
    table = report.format_table(
        ("design", "avg per-txn cycles vs S+"),
        [(d, f"{v:.2f}x") for d, v in data["avg_txn_cycles_ratio"].items()],
    )
    extra = ""
    fence_attrib = data.get("fence_attrib") or {}
    if fence_attrib:
        rows = []
        for design, comps in fence_attrib.items():
            total = sum(comps.values()) or 1.0
            top = sorted(comps.items(), key=lambda kv: -kv[1])[:3]
            rows.append((design, ", ".join(
                f"{k} {v / total:.0%}" for k, v in top)))
        extra = "\n\n" + report.format_table(
            ("design", "fence-stall attribution (top components)"), rows)
    return (f"{chart}\n\n{table}{extra}\n\n"
            "paper: S+ spends 54% of txn time in fence stall; avg txn "
            "takes 24%/35% fewer cycles in WS+/W+; Wee only 11% fewer")


# ---------------------------------------------------------------------------
# Figure 12 — scalability of fence-stall reduction
# ---------------------------------------------------------------------------

#: representative per-group subsets for the (expensive) scaling sweep
FIG12_APPS = {
    "cilk": ("fib", "bucket", "matmul"),
    "ustm": ("ReadNWrite1", "Tree", "MCAS"),
    "stamp": ("intruder", "vacation", "ssca2"),
}

FIG12_CORE_COUNTS = (4, 8, 16, 32)


def fig12_scalability(
    scale: float = 1.0,
    seed: int = 12345,
    core_counts: Sequence[int] = FIG12_CORE_COUNTS,
    groups: Sequence[str] = ("cilk", "ustm", "stamp"),
) -> dict:
    """Figure 12: (design fence-stall / S+ fence-stall) per core count."""
    designs = (FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
               FenceDesign.W_PLUS, FenceDesign.WEE)
    series = []
    for group in groups:
        apps = FIG12_APPS[group]
        runs = run_matrix(apps, designs, scale=scale, seed=seed,
                          core_counts=list(core_counts))
        for design in designs[1:]:
            for cores in core_counts:
                ratios = []
                for app in apps:
                    base = runs[(app, BASELINE, cores)]
                    r = runs[(app, str(design), cores)]
                    if base.fence_stall > 0:
                        ratios.append(r.fence_stall / base.fence_stall)
                series.append({
                    "group": group,
                    "design": str(design),
                    "cores": cores,
                    "stall_ratio": report.mean(ratios),
                })
    return {"series": series, "core_counts": list(core_counts),
            "groups": list(groups), "seed": seed}


def render_fig12(data: dict) -> str:
    lines = ["Figure 12 — fence-stall time relative to S+ (%), by core count",
             "  (flat lines = the designs keep their effectiveness as the "
             "machine scales)"]
    by_key: Dict[tuple, Dict[int, float]] = {}
    for s in data["series"]:
        by_key.setdefault((s["group"], s["design"]), {})[s["cores"]] = \
            s["stall_ratio"]
    header = ["group-design"] + [f"P{c}" for c in data["core_counts"]]
    rows = []
    for (group, design), vals in sorted(by_key.items()):
        rows.append(
            [f"{group}-{design}"]
            + [f"{100 * vals.get(c, float('nan')):.0f}%"
               for c in data["core_counts"]]
        )
    lines.append(report.format_table(header, rows))
    lines.append("paper: ratios stay flat or rise only modestly with cores "
                 "(e.g. CilkApps-WS+ ~28% at every core count)")
    return "\n".join(lines)
