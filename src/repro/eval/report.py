"""Text rendering for the evaluation: tables and ASCII stacked bars.

The paper's figures are stacked-bar charts (Busy / Fence Stall / Other
Stall) and grouped bar charts (normalized throughput).  We render the
same data as fixed-width text so the benchmark harness can print a
directly comparable report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

BAR_WIDTH = 40


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Simple fixed-width table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def stacked_bar(
    parts: Dict[str, float], total_scale: float, width: int = BAR_WIDTH
) -> str:
    """One ASCII stacked bar: parts rendered proportionally to
    *total_scale* (the normalization denominator)."""
    symbols = {"busy": "#", "fence_stall": "F", "other_stall": "."}
    total = sum(parts.values())
    if total_scale <= 0:
        return ""
    bar = ""
    for key in ("busy", "fence_stall", "other_stall"):
        frac = parts.get(key, 0.0) / total_scale
        bar += symbols[key] * max(0, round(frac * width))
    return bar


def render_breakdown_chart(
    entries: List[dict],
    title: str,
    value_key: str = "normalized_time",
) -> str:
    """Paper-style stacked-bar chart, one bar per (app, design).

    Each entry: {app, design, busy, fence_stall, other_stall,
    normalized_time} with the cycle categories already normalized to
    the app's S+ total (so the S+ bar has length 1.0).
    """
    lines = [title, f"  (#=busy, F=fence stall, .=other stall; "
                    f"bar length ∝ time normalized to S+)"]
    cur_app = None
    for e in entries:
        if e["app"] != cur_app:
            cur_app = e["app"]
            lines.append(f"  {cur_app}")
        parts = {
            "busy": e["busy"],
            "fence_stall": e["fence_stall"],
            "other_stall": e["other_stall"],
        }
        bar = stacked_bar(parts, total_scale=1.0)
        lines.append(
            f"    {e['design']:<4} {e[value_key]:5.2f} |{bar}"
        )
    return "\n".join(lines)


def render_ratio_chart(
    entries: List[dict], title: str, value_key: str, unit: str = "x"
) -> str:
    """Grouped bar chart of normalized ratios (Fig. 9 style)."""
    lines = [title]
    cur_app = None
    max_val = max((e[value_key] for e in entries), default=1.0)
    scale = BAR_WIDTH / max(1.0, max_val)
    for e in entries:
        if e["app"] != cur_app:
            cur_app = e["app"]
            lines.append(f"  {cur_app}")
        bar = "#" * max(1, round(e[value_key] * scale))
        lines.append(f"    {e['design']:<4} {e[value_key]:5.2f}{unit} |{bar}")
    return "\n".join(lines)


def mean(values: Sequence[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0
