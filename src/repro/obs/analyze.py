"""Trace analytics: JSONL loading, typed tables, attribution replay.

This module is the *offline* half of the profiler.  It loads the
JSONL stream :func:`repro.obs.export.write_jsonl` produced back into
:class:`~repro.obs.tracer.TraceEvent` records (bit-identically — the
round trip is pinned by ``tests/obs/test_analyze.py``), offers small
dependency-free query helpers (filter / groupby / percentile / top-K)
over them, and — the cross-check the tentpole demands — **replays the
trace into an attribution tree** that must equal the online tree of
the same run leaf for leaf:

* sf / recovery spans carry their serialization ``extra`` in the args,
  so the drain window is ``[ts, ts + dur - extra]``; the bounce share
  is the exact overlap of that window with the core's ``bounce_chain``
  spans (per core at most one store is in flight, so chains never
  overlap and interval clipping is exact);
* ``load_stall`` spans charge their duration to their reason leaf;
* ``mem_stall`` / ``rmw_stall`` spans carry the exact charged amount
  (``charge``) in the args — replay re-applies it verbatim, so float
  terms round-trip bit-identically through JSON (repr round-trip);
* ``wb_full_stall`` spans charge their duration;
* on the C-fence design the whole sf span is the centralized-table
  episode and lands on the ``cfence`` leaf.

Spans squashed by a W+ rollback (args ``outcome``) or cut off by the
cycle budget (args ``incomplete``) made no online charge and are
skipped.  Replay requires the trace to be complete (``dropped == 0``)
and self-describing (a ``provenance`` meta header and the per-core
``core_summary`` instants Machine.run emits) — :class:`AnalysisError`
otherwise.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.attrib import build_tree
from repro.obs.tracer import TraceEvent, select


class AnalysisError(Exception):
    """A trace cannot be analyzed (malformed, truncated, unprovenanced)."""


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


class TraceData:
    """One loaded JSONL trace: meta header and events."""

    def __init__(self, meta: dict, events: List[TraceEvent]):
        self.meta = meta
        self.events = events

    @property
    def provenance(self) -> dict:
        prov = self.meta.get("provenance")
        if not isinstance(prov, dict):
            raise AnalysisError(
                "trace has no provenance header — re-export it with a "
                "current `repro run --trace-out` (the meta line must carry design/"
                "seed/kernel/... for analytics)"
            )
        return prov

    @property
    def dropped(self) -> int:
        return int(self.meta.get("dropped", 0))

    def spans(self, name: Optional[str] = None,
              cat: Optional[str] = None) -> List[TraceEvent]:
        return select(self.events, "X", name, cat)

    def instants(self, name: Optional[str] = None,
                 cat: Optional[str] = None) -> List[TraceEvent]:
        return select(self.events, "i", name, cat)


def load_jsonl(path: str) -> TraceData:
    """Load a ``write_jsonl`` stream back into typed records.

    Event lines reconstruct the original :class:`TraceEvent` exactly:
    ``to_dict`` omits only a ``None`` dur and empty args, which the
    constructor defaults restore.

    Each stripped line goes straight to the decoder's C scanner; with
    no whitespace left around it, "one value, ending where the line
    ends" is precisely what ``json`` accepts for the line.

    Older exports also carry interval-metrics samples (``"type":
    "metrics"`` lines); those are skipped.
    """
    meta: Optional[dict] = None
    events: List[TraceEvent] = []
    scan_once = json.JSONDecoder().scan_once
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = scan_once(line, 0)
                if end != len(line):
                    raise ValueError(f"extra data at char {end}")
            except StopIteration as exc:
                raise AnalysisError(
                    f"{path}:{lineno}: bad JSON: no value at char {exc.value}")
            except ValueError as exc:
                raise AnalysisError(f"{path}:{lineno}: bad JSON: {exc}")
            try:
                kind = rec.get("type")
            except AttributeError:
                raise AnalysisError(
                    f"{path}:{lineno}: not a record: expected a JSON "
                    f"object, got {type(rec).__name__}")
            if kind == "meta":
                meta = rec
            elif kind == "event":
                try:
                    events.append(TraceEvent(
                        rec["ph"], rec["track"], rec["name"], rec["cat"],
                        rec["ts"], rec.get("dur"), rec.get("args"),
                    ))
                except KeyError as exc:
                    raise AnalysisError(
                        f"{path}:{lineno}: event record has no {exc} field")
            elif kind != "metrics":
                raise AnalysisError(
                    f"{path}:{lineno}: unknown record type {kind!r}")
    if meta is None:
        raise AnalysisError(f"{path}: no meta header line")
    return TraceData(meta, events)


# ---------------------------------------------------------------------------
# typed tables (tiny, dependency-free)
# ---------------------------------------------------------------------------


class Table:
    """A list of dict rows with filter / groupby / percentile helpers.

    Deliberately minimal — enough for episode analytics and the CLI
    reports without reaching for pandas (which the container may not
    have)."""

    def __init__(self, rows: Iterable[dict]):
        self.rows: List[dict] = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def filter(self, pred: Callable[[dict], bool]) -> "Table":
        return Table(r for r in self.rows if pred(r))

    def where(self, **eq) -> "Table":
        return self.filter(
            lambda r: all(r.get(k) == v for k, v in eq.items()))

    def groupby(self, key) -> Dict[object, "Table"]:
        fn = key if callable(key) else (lambda r: r.get(key))
        groups: Dict[object, List[dict]] = {}
        for row in self.rows:
            groups.setdefault(fn(row), []).append(row)
        return {k: Table(v) for k, v in groups.items()}

    def column(self, name: str) -> List[object]:
        return [r.get(name) for r in self.rows]

    def sum(self, name: str) -> float:
        return sum(r.get(name, 0) or 0 for r in self.rows)

    def percentile(self, name: str, q: float) -> Optional[float]:
        """Linear-interpolated percentile of a numeric column
        (q in [0, 100]); None on an empty table."""
        values = sorted(r[name] for r in self.rows if r.get(name) is not None)
        if not values:
            return None
        if len(values) == 1:
            return float(values[0])
        pos = (q / 100.0) * (len(values) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    def top(self, name: str, k: int = 10) -> "Table":
        return Table(sorted(
            self.rows, key=lambda r: -(r.get(name) or 0))[:k])


def episode_table(data: TraceData) -> Table:
    """Every fence-ish span (sf / wf / recovery / load_stall /
    bounce_chain / cfence-as-sf) as one row — the base table for
    episode-latency analytics."""
    rows = []
    for ev in data.spans():
        if ev.name not in ("sf", "wf", "recovery", "load_stall",
                           "bounce_chain"):
            continue
        args = ev.args or {}
        rows.append({
            "name": ev.name, "core": ev.track, "ts": ev.ts,
            "dur": ev.dur or 0, "reason": args.get("reason"),
            "demoted": bool(args.get("demoted")),
            "converted": bool(args.get("converted")),
            "outcome": args.get("outcome"),
            "incomplete": bool(args.get("incomplete")),
            "retries": args.get("retries"),
            "store_id": args.get("store_id"),
            "line": args.get("line"),
        })
    return Table(rows)


def episode_latency_distribution(data: TraceData,
                                 names=("sf", "wf", "recovery"),
                                 ) -> Dict[str, Dict[str, float]]:
    """Per-episode-kind latency distribution (count/mean/p50/p90/p99/max)."""
    table = episode_table(data).filter(
        lambda r: not r["incomplete"] and r["outcome"] is None)
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        sub = table.where(name=name)
        if not len(sub):
            continue
        durs = sub.column("dur")
        out[name] = {
            "count": len(sub),
            "mean": sum(durs) / len(sub),
            "p50": sub.percentile("dur", 50),
            "p90": sub.percentile("dur", 90),
            "p99": sub.percentile("dur", 99),
            "max": max(durs),
        }
    return out


def top_lines(data: TraceData, k: int = 10) -> List[dict]:
    """Top-K hottest cache lines by total L1 miss-transaction wait."""
    acc: Dict[int, List[float]] = {}
    for ev in data.spans("l1_miss"):
        line = (ev.args or {}).get("line")
        entry = acc.setdefault(line, [0, 0])
        entry[0] += ev.dur or 0
        entry[1] += 1
    rows = sorted(acc.items(), key=lambda kv: -kv[1][0])[:k]
    return [{"line": line, "wait_cycles": cyc, "transactions": cnt}
            for line, (cyc, cnt) in rows]


def top_stores(data: TraceData, k: int = 10) -> List[dict]:
    """Top-K bounce→retry chains by attributed stall (chain length)."""
    rows = []
    for ev in data.spans("bounce_chain"):
        args = ev.args or {}
        rows.append({
            "store_id": args.get("store_id"), "core": ev.track,
            "line": args.get("line"), "word": args.get("word"),
            "retries": args.get("retries"), "dur": ev.dur or 0,
            "outcome": args.get("outcome"),
        })
    rows.sort(key=lambda r: -r["dur"])
    return rows[:k]


# ---------------------------------------------------------------------------
# offline attribution replay
# ---------------------------------------------------------------------------


def _overlap(chains: List[tuple], lo: float, hi: float) -> float:
    """Total intersection of ``[lo, hi]`` with the (disjoint) chain
    intervals of one core."""
    total = 0.0
    for c_lo, c_hi in chains:
        w = min(hi, c_hi) - max(lo, c_lo)
        if w > 0:
            total += w
    return total


def replay_attribution(data: TraceData,
                       label: Optional[str] = None) -> Dict[str, object]:
    """Rebuild the attribution tree from a trace alone.

    Must agree leaf-for-leaf with the online
    :meth:`repro.obs.attrib.CycleAttribution.tree` of the same run —
    that agreement is the cross-check of the whole trace pipeline
    (pinned by ``tests/obs/test_attrib.py``).
    """
    if data.dropped:
        raise AnalysisError(
            f"trace dropped {data.dropped} events (max_events cap): "
            "attribution replay needs a complete trace"
        )
    prov = data.provenance
    design = prov.get("design")
    num_cores = prov.get("cores")
    if design is None or num_cores is None:
        raise AnalysisError("provenance lacks design/cores")

    summaries = data.instants("core_summary")
    if len(summaries) != num_cores:
        raise AnalysisError(
            f"expected {num_cores} core_summary records, found "
            f"{len(summaries)} — trace predates attribution support?"
        )
    coarse: List[Optional[dict]] = [None] * num_cores
    cycles = 0
    for ev in summaries:
        args = ev.args or {}
        coarse[ev.track] = {
            "busy": args["busy"],
            "fence_stall": args["fence_stall"],
            "other_stall": args["other_stall"],
        }
        cycles = args["cycles"]
    if any(c is None for c in coarse):
        raise AnalysisError("core_summary records do not cover every core")

    # per-core bounce-chain intervals (disjoint: one head store in
    # flight per core).  Incomplete chains still bound completed sf /
    # recovery windows correctly — an sf or recovery that *completed*
    # ended with a drained write buffer, so any chain still open at
    # finalize started after that window closed.
    chains: List[List[tuple]] = [[] for _ in range(num_cores)]
    for ev in data.spans("bounce_chain"):
        chains[ev.track].append((ev.ts, ev.ts + (ev.dur or 0)))

    leaves: List[Dict[str, float]] = [{} for _ in range(num_cores)]

    def add(core: int, leaf: str, value: float) -> None:
        d = leaves[core]
        d[leaf] = d.get(leaf, 0.0) + value

    is_cfence = design == "C-fence"
    for ev in data.spans("sf"):
        args = ev.args or {}
        if "outcome" in args or args.get("incomplete"):
            continue  # squashed or cut off: never charged online
        if is_cfence:
            # the sf span wraps the whole centralized-table episode;
            # its duration equals the cfence charge
            add(ev.track, "cfence", ev.dur)
            continue
        extra = args.get("extra", 0)
        lo, hi = ev.ts, ev.ts + ev.dur - extra
        bounce = _overlap(chains[ev.track], lo, hi)
        prefix = "sf_demoted" if args.get("demoted") else "sf"
        add(ev.track, prefix + ".drain", (hi - lo) - bounce)
        add(ev.track, prefix + ".bounce", bounce)
        add(ev.track, prefix + ".serialize", extra)

    for ev in data.spans("recovery"):
        args = ev.args or {}
        if "outcome" in args or args.get("incomplete"):
            continue
        extra = args.get("extra", 0)
        lo, hi = ev.ts, ev.ts + ev.dur - extra
        bounce = _overlap(chains[ev.track], lo, hi)
        add(ev.track, "recovery.drain", (hi - lo) - bounce)
        add(ev.track, "recovery.bounce", bounce)
        add(ev.track, "recovery.restart", extra)

    for ev in data.spans("load_stall"):
        reason = (ev.args or {}).get("reason", "fence")
        add(ev.track, "load_stall." + reason, ev.dur)

    for ev in data.spans("mem_stall"):
        add(ev.track, "mem", (ev.args or {})["charge"])

    for ev in data.spans("wb_full_stall"):
        add(ev.track, "wb_full", ev.dur)

    for ev in data.spans("rmw_stall"):
        add(ev.track, "rmw", (ev.args or {})["charge"])

    return build_tree(num_cores, design, leaves, coarse, cycles,
                      label=label)
