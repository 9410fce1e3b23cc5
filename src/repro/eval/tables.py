"""Regeneration of the paper's tables (1-4).

Tables 1-3 are static descriptions checked against the implementation
(the taxonomy really is the implemented policy set, the architecture
really is the default MachineParams, the workload list really is the
registry).  Table 4 is measured: the characterization columns of the
S+/WS+/W+/Wee designs over the three workload groups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.params import FenceDesign, MachineParams, TABLE2_ROWS
from repro.eval import report
from repro.eval.runner import RunSummary, run_matrix
from repro.fences.base import TABLE1_ROWS
from repro.workloads.base import TABLE3_ROWS, load_all_workloads, workloads_in_group


def table1() -> str:
    """Table 1: wf designs and the taxonomy of asymmetric fence groups."""
    return report.format_table(
        ("Name", "wf Design Point / Corresponding Fence Group",
         "Hardware Support Required"),
        TABLE1_ROWS,
        title="Table 1 — taxonomy of Asymmetric fence groups under TSO",
    )


def table2(params: Optional[MachineParams] = None) -> str:
    """Table 2: the architecture modeled (defaults of MachineParams)."""
    params = params or MachineParams()
    live_rows = [
        ("num_cores (default)", params.num_cores),
        ("issue width", params.issue_width),
        ("ROB entries", params.rob_entries),
        ("write buffer entries", params.write_buffer_entries),
        ("L1", f"{params.l1_size_bytes // 1024}KB, {params.l1_ways}-way, "
               f"{params.l1_hit_cycles}-cycle, {params.line_bytes}B lines"),
        ("L2 bank", f"{params.l2_bank_size_bytes // 1024}KB, "
                    f"{params.l2_ways}-way, {params.l2_hit_cycles}-cycle"),
        ("BS entries", params.bs_entries),
        ("mesh hop", f"{params.mesh_hop_cycles} cycles"),
        ("off-chip memory", f"{params.memory_cycles}-cycle RT"),
    ]
    paper = report.format_table(("Component", "Paper (Table 2)"), TABLE2_ROWS)
    ours = report.format_table(("Parameter", "Simulator default"), live_rows)
    return (f"Table 2 — architecture modeled\n\n{paper}\n\n{ours}")


def table3() -> str:
    """Table 3: applications used, checked against the registry."""
    load_all_workloads()
    live = [
        (group, ", ".join(cls.name for cls in workloads_in_group(group)))
        for group in ("cilk", "ustm", "stamp")
    ]
    paper = report.format_table(("Workload group", "Applications"), TABLE3_ROWS)
    ours = report.format_table(("Registry group", "Registered workloads"), live)
    return f"Table 3 — applications used in the evaluation\n\n{paper}\n\n{ours}"


# ---------------------------------------------------------------------------
# Table 4 — measured characterization
# ---------------------------------------------------------------------------

#: representative per-group subsets (Table 4 characterizes each group as
#: a whole; a subset keeps the regeneration affordable — see DESIGN.md)
TABLE4_APPS = {
    "cilk": ("fib", "bucket", "matmul", "lu"),
    "ustm": ("List", "Tree", "ReadNWrite1", "TreeOverwrite"),
    "stamp": ("intruder", "vacation", "ssca2", "genome"),
}

TABLE4_GROUP_LABEL = {"cilk": "CilkApps", "ustm": "ustm", "stamp": "STAMP"}


def _agg(runs: List[RunSummary], key: str) -> float:
    return report.mean([r.stats.get(key, 0.0) for r in runs])


def table4_characterization(
    scale: float = 1.0,
    num_cores: int = 8,
    seed: int = 12345,
    apps: Optional[Dict[str, Sequence[str]]] = None,
) -> dict:
    """Measure the Table 4 columns for every design and group."""
    apps = apps or TABLE4_APPS
    designs = (FenceDesign.S_PLUS, FenceDesign.WS_PLUS,
               FenceDesign.W_PLUS, FenceDesign.WEE)
    rows = []
    for group, names in apps.items():
        runs = run_matrix(list(names), designs, num_cores=num_cores,
                          scale=scale, seed=seed)
        per_design = {
            str(d): [runs[(n, str(d), num_cores)] for n in names]
            for d in designs
        }
        sp, ws, wp, wee = (per_design[str(d)] for d in designs)
        rows.append({
            "group": TABLE4_GROUP_LABEL.get(group, group),
            # S+ columns
            "splus_sf_per_ki": _agg(sp, "sf_per_ki"),
            # WS+ columns
            "ws_sf_per_ki": _agg(ws, "sf_per_ki"),
            "ws_wf_per_ki": _agg(ws, "wf_per_ki"),
            "ws_bs_lines": _agg(ws, "bs_lines"),
            "ws_bounces_per_wf": _agg(ws, "bounces_per_wf"),
            "ws_retries_per_wr": _agg(ws, "retries_per_wr"),
            "ws_traffic_pct": _agg(ws, "traffic_incr_pct"),
            # W+ columns
            "w_wf_per_ki": _agg(wp, "wf_per_ki"),
            "w_recoveries_per_wf": _agg(wp, "recoveries_per_wf"),
            "w_traffic_pct": _agg(wp, "traffic_incr_pct"),
            # Wee columns
            "wee_sf_per_ki": _agg(wee, "sf_per_ki"),
            "wee_wf_per_ki": _agg(wee, "wf_per_ki"),
            "wee_bs_lines": _agg(wee, "bs_lines"),
        })
    return {"rows": rows, "apps": apps, "seed": seed}


def render_table4(data: dict) -> str:
    headers = (
        "Workload", "S+ sf/ki",
        "WS+ sf/ki", "WS+ wf/ki", "WS+ lines/BS", "WS+ bounce/wf",
        "WS+ retry/wr", "WS+ %traffic",
        "W+ wf/ki", "W+ recov/wf", "W+ %traffic",
        "Wee sf/ki", "Wee wf/ki", "Wee lines/BS",
    )
    rows = []
    for r in data["rows"]:
        rows.append((
            r["group"],
            f"{r['splus_sf_per_ki']:.1f}",
            f"{r['ws_sf_per_ki']:.1f}", f"{r['ws_wf_per_ki']:.1f}",
            f"{r['ws_bs_lines']:.1f}", f"{r['ws_bounces_per_wf']:.2f}",
            f"{r['ws_retries_per_wr']:.1f}", f"{r['ws_traffic_pct']:.2f}",
            f"{r['w_wf_per_ki']:.1f}", f"{r['w_recoveries_per_wf']:.3f}",
            f"{r['w_traffic_pct']:.2f}",
            f"{r['wee_sf_per_ki']:.1f}", f"{r['wee_wf_per_ki']:.1f}",
            f"{r['wee_bs_lines']:.1f}",
        ))
    table = report.format_table(
        headers, rows, title="Table 4 — characterization of Asymmetric fences"
    )
    paper = (
        "paper: sf ~0.6-5.7/ki; BS holds 3-5 lines; bounces and retries per\n"
        "wf low (<0.2 / <2.2); traffic increase negligible; W+ recoveries\n"
        "noticeable only for ustm (~0.02/wf); Wee converts ~half of ustm\n"
        "and ~a third of STAMP fences into sfs, almost none for CilkApps"
    )
    return f"{table}\n\n{paper}"


# ---------------------------------------------------------------------------
# repro synth — ranked placement table
# ---------------------------------------------------------------------------

def _fmt_cycles(value: Optional[float]) -> str:
    return "?" if value is None else f"{value:.1f}"


def _audit_cell(placement: dict) -> str:
    audit = placement["audit"]
    verdict = "pass" if audit["passed"] else "FAIL"
    minimal = "minimal" if audit["minimal"] else "NOT MINIMAL"
    return f"{verdict}@{audit['points']}pts, {minimal}"


def render_synth_table(data: dict, simulated_runs: int,
                       warmups_restored: int) -> str:
    """Text rendering of a ``repro synth`` report dict: the ranked
    placement × design table plus the per-site marginal probe table;
    the footer sets ``SynthReport.simulated_runs`` and
    ``warmups_restored`` (neither in the dict) beside the verdicts
    those runs answered."""
    cfg = data["config"]
    prog = data["program"]
    lines = [
        f"synth — minimal fence placements for {prog['name']!r} "
        f"(seed {cfg['seed']}, {cfg['num_points']} adversary points, "
        f"audit x{cfg['audit_factor']})",
        f"sites ({prog['site_mode']}): "
        + (", ".join(prog["sites"]) or "(none)"),
        "",
    ]

    placement_rows = []
    probe_rows = []
    notes = []
    for design, entry in data["designs"].items():
        if entry["status"] != "ok":
            failure = entry.get("failure") or {}
            why = failure.get("reason", "")
            notes.append(f"  {design}: {entry['status']}"
                         + (f" ({why})" if why else ""))
            continue
        for p in entry["placements"]:
            placement_rows.append((
                design, str(p["rank"]), p["placement"],
                str(p["num_wf"]), str(p["num_sf"]),
                _fmt_cycles(p["cycles"]),
                _fmt_cycles(p["overhead_cycles"]),
                "yes" if p["sc_safe"] else "NO",
                _audit_cell(p),
            ))
        for site, per_site in entry["site_probes"].items():
            wf = per_site.get("wf")
            sf = per_site.get("sf")
            probe_rows.append((
                design, site,
                "-" if wf is None else f"+{wf:.1f}",
                "-" if sf is None else f"+{sf:.1f}",
            ))

    if placement_rows:
        lines.append(report.format_table(
            ("Design", "Rank", "Placement", "wf", "sf", "Cycles",
             "+Cycles", "SC-safe", "Audit"),
            placement_rows,
            title="ranked placements (cheapest first per design)",
        ))
    if probe_rows:
        lines.append("")
        lines.append(report.format_table(
            ("Design", "Site", "wf", "sf"),
            probe_rows,
            title="per-site marginal fence cost (cycles over empty "
                  "baseline; end-to-end cost above also includes "
                  "interaction effects)",
        ))
    if notes:
        lines.append("")
        lines.append("designs without a synthesized placement:")
        lines.extend(notes)
    lines.append("")
    lines.append(f"oracle verdicts: {data['total_runs']}; "
                 f"simulator runs: {simulated_runs}; "
                 f"warm-ups restored: {warmups_restored}; "
                 f"report ok: {'yes' if data['ok'] else 'NO'}")
    return "\n".join(lines)
