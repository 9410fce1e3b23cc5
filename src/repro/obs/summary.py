"""Text timeline summary for ``repro run --trace``.

Renders the episode-level story of one traced run: event counts by
category, the top-N longest fence episodes, the longest bounce→retry
chains, a W+ recovery-episode table, and the worst fence-induced load
stalls — the questions a surprising ``bounces`` or ``wplus_recoveries``
aggregate makes you ask.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.obs.tracer import KINDS, TRACK_DIR_BASE, TRACK_NOC, Tracer


def _fmt_args(ev, skip=()) -> str:
    if not ev.args:
        return ""
    parts = [f"{k}={v}" for k, v in ev.args.items() if k not in skip]
    return " ".join(parts)


def _where(track: int) -> str:
    if track == TRACK_NOC:
        return "noc"
    if track >= TRACK_DIR_BASE:
        return f"dir{track - TRACK_DIR_BASE}"
    return f"c{track}"


def render_trace_summary(tracer: Tracer, stats=None, top: int = 10) -> str:
    """Build the multi-section text report; returns one printable string."""
    lines: List[str] = []
    out = lines.append

    out("== trace summary ==")
    out(f"events: {len(tracer.records)}"
        + (f" (+{tracer.dropped} dropped at cap)" if tracer.dropped else ""))

    # ---- counts by category / name (off the records: no views) --------
    by_name = {}
    for kind, n in Counter(rec[0] for rec in tracer.records).items():
        ph, name, cat, _ = KINDS[kind]
        # a free-form kind's records carry their names themselves
        names = {name: n} if name else Counter(
            rec[4] for rec in tracer.records if rec[0] == kind)
        for name, n in names.items():
            by_name[cat, name, ph] = by_name.get((cat, name, ph), 0) + n
    if by_name:
        out("")
        out("-- event counts --")
        for (cat, name, ph), n in sorted(by_name.items()):
            out(f"  {cat:<9} {name:<16} {'span' if ph == 'X' else 'instant' if ph == 'i' else 'counter':<8} {n:>8}")

    # ---- longest fence episodes ---------------------------------------
    fence_spans = tracer.spans(cat="fence")
    fences = [ev for ev in fence_spans if ev.dur]
    if fences:
        fences.sort(key=lambda ev: -ev.dur)
        out("")
        out(f"-- top {min(top, len(fences))} longest fence episodes --")
        out(f"  {'kind':<4} {'core':<5} {'start':>10} {'cycles':>9}  detail")
        for ev in fences[:top]:
            out(f"  {ev.name:<4} {_where(ev.track):<5} {ev.ts:>10} "
                f"{round(ev.dur):>9}  {_fmt_args(ev)}")

    # ---- longest bounce chains ----------------------------------------
    chains = [ev for ev in tracer.spans("bounce_chain") if ev.dur]
    if chains:
        chains.sort(key=lambda ev: (-ev.args.get("retries", 0), -ev.dur))
        out("")
        out(f"-- top {min(top, len(chains))} longest bounce chains --")
        out(f"  {'core':<5} {'start':>10} {'cycles':>9} {'retries':>8}  detail")
        for ev in chains[:top]:
            out(f"  {_where(ev.track):<5} {ev.ts:>10} {round(ev.dur):>9} "
                f"{ev.args.get('retries', 0):>8}  "
                f"{_fmt_args(ev, skip=('retries',))}")

    # ---- recovery episodes --------------------------------------------
    recoveries = tracer.spans("recovery")
    if recoveries:
        out("")
        out(f"-- W+ recovery episodes ({len(recoveries)}) --")
        out(f"  {'core':<5} {'start':>10} {'cycles':>9} {'dropped':>8} "
            f"{'bs_clr':>7} {'unwound':>8}")
        for ev in recoveries:
            out(f"  {_where(ev.track):<5} {ev.ts:>10} "
                f"{round(ev.dur or 0):>9} "
                f"{ev.args.get('dropped_stores', 0):>8} "
                f"{ev.args.get('bs_cleared', 0):>7} "
                f"{ev.args.get('fences_unwound', 0):>8}"
                + ("  [incomplete]" if ev.args.get("incomplete") else ""))
        timeouts = len(tracer.instants("wplus_timeout"))
        out(f"  timeouts armed: {timeouts}, recoveries fired: "
            f"{len(recoveries)} (armed-but-cleared: "
            f"{timeouts - len(recoveries)})")

    # ---- worst load stalls --------------------------------------------
    stalls = [ev for ev in tracer.spans("load_stall") if ev.dur]
    if stalls:
        stalls.sort(key=lambda ev: -ev.dur)
        out("")
        out(f"-- top {min(top, len(stalls))} fence-induced load stalls --")
        out(f"  {'core':<5} {'start':>10} {'cycles':>9}  reason")
        for ev in stalls[:top]:
            out(f"  {_where(ev.track):<5} {ev.ts:>10} {round(ev.dur):>9}  "
                f"{ev.args.get('reason', '?')}")

    # ---- stats cross-check --------------------------------------------
    if stats is not None:
        out("")
        out("-- stats cross-check --")
        sf_spans = [ev for ev in fence_spans if ev.name == "sf"]
        wf_spans = [ev for ev in fence_spans if ev.name == "wf"]
        converted = sum(1 for ev in wf_spans if ev.args
                        and ev.args.get("converted"))
        out(f"  sf episodes: {len(sf_spans) + converted} "
            f"(stats.total_sf={stats.total_sf})")
        out(f"  wf episodes: {len(wf_spans) - converted} "
            f"(stats.total_wf={stats.total_wf})")
        out(f"  dir bounces: {len(tracer.instants('bounce', cat='dir'))} "
            f"(stats.bounces={stats.bounces})")
        out(f"  bounce chains: {len(chains)} "
            f"(stats.bounced_writes={stats.bounced_writes})")
        out(f"  recoveries: {len(recoveries)} "
            f"(stats.wplus_recoveries={stats.wplus_recoveries})")

    return "\n".join(lines)

