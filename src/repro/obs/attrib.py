"""Cycle attribution: exact, conservation-checked stall decomposition.

The coarse three-bucket accounting (:class:`~repro.common.stats.
CoreCycleBreakdown`: Busy / Fence Stall / Other Stall) says *how much*
time a core lost; this module says *why*.  A
:class:`CycleAttribution` attached to a machine splits every coarse
stall charge into a fine leaf at the exact program point that charges
the coarse bucket, producing a per-core tree::

    total (stats.cycles)
    ├── busy
    ├── fence_stall                       == breakdown.fence_stall
    │   ├── sf          {drain, bounce, serialize}
    │   ├── sf_demoted  {drain, bounce, serialize}   (Wee confinement)
    │   ├── recovery    {drain, bounce, restart}     (W+ rollback)
    │   ├── load_stall  {fence, bs_full, grt_pending,
    │   │                remote_ps, cross_bank}      (parked loads)
    │   └── cfence                                   (C-fence episodes)
    ├── other_stall                       == breakdown.other_stall
    │   ├── mem      (miss latency beyond the issue slot)
    │   ├── wb_full  (store blocked on a full write buffer)
    │   └── rmw      (atomic drain + round trip beyond the issue slot)
    └── idle  = cycles − (busy + fence + other)

Conservation contract: the fine leaves under each bucket sum to the
coarse bucket **bit-exactly** — every fine charge is taken at the same
site, from the same expression, as the coarse charge it refines.  With
a power-of-two ``issue_width`` every charge is a dyadic rational, so
float accumulation never rounds and the sums are order-independent;
:func:`conservation_errors` asserts exact equality, not a tolerance.

The *bounce* sub-leaf of an sf/recovery drain is the time the drain
window overlapped a bounce→retry chain of this core's head store.  Per
core at most one store is ever in flight, so chains never overlap and
a monotone "total chain time" accumulator (snapshot at window start,
delta at window end) measures the intersection exactly — the same
value offline replay obtains by clipping ``bounce_chain`` trace spans
to the drain window (:func:`repro.obs.analyze.replay_attribution`).

One listener per stall site: the engine answers the *tracer's* hook
names (:data:`repro.obs.tracer.HOOKS`) and sits in the ``tracer`` slot
of the components it listens to — cores, write buffers, L1s — so a
stall site reports once, behind one ``tracer is None`` guard, to
whichever listener the run attached.  The hooks that refine a charge or
count a design event are the methods below, with the tracer's
signatures; every other hook name is an ignored no-op, filled in from
the tracer's own list so the two cannot drift.  Directory banks and the NoC are not wired: nothing they report
is attributed, and their ``msg`` / ``dir_txn`` hooks are the hottest.
``machine.tracer`` stays ``None`` on an attributed-only run, so nothing
that reads it (finalize, the watchdog's trace tail, sanitizer and fault
instants) sees attribution at all.  The ``Core._advance`` hot loop has
no hook (busy is read off the coarse breakdown at tree build).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.params import FenceDesign
from repro.obs.tracer import HOOKS

SCHEMA = "repro.attrib/1"
DIFF_SCHEMA = "repro.attrib.diff/1"

#: every parking reason ``Core._stall_load`` can record ("fence" is the
#: generic sf/pending-wf reason; the rest are Wee/BS-specific)
LOAD_STALL_REASONS = (
    "fence", "bs_full", "grt_pending", "remote_ps", "cross_bank",
)

#: cap on distinct lines tracked by the hot-line accumulator (new lines
#: past the cap are folded into an "(other)" bucket, never dropped)
HOT_LINE_CAP = 4096


class CycleAttribution:
    """Per-core fine-grained stall accumulators for one machine run.

    Attach with :meth:`repro.sim.machine.Machine.attach_attrib` (or
    ``Observability(attrib=True)``) before ``run()``; read the result
    with :meth:`tree` afterwards.
    """

    def __init__(self):
        self._queue = None
        self._stats = None
        self.design = None
        self.num_cores = 0
        #: per-core flat leaf accumulators, keyed "sf.drain", "mem", ...
        self.leaves: List[Dict[str, float]] = []
        #: per-core design-event counters (order promotions, demotions)
        self.counts: List[Dict[str, int]] = []
        #: per-core {line: [wait_cycles, transactions]} hot-line table
        self.hot_lines: List[Dict[int, list]] = []
        #: per-core write-buffer peak occupancy
        self.wb_peak: List[int] = []
        # bounce-chain clock: per-core monotone total-chain-time
        # accumulator + the open chain's start cycle (chains of one
        # core never overlap: only the head store is ever in flight)
        self._chain_accum: List[int] = []
        self._chain_open_t0: List[Optional[int]] = []
        # open episode state: (t0, chain snapshot[, demoted])
        self._sf_open: List[Optional[tuple]] = []
        self._rec_open: List[Optional[tuple]] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def bind(self, machine) -> None:
        """Size the accumulators for *machine* (Machine.attach_attrib)."""
        self._queue = machine.queue
        self._stats = machine.stats
        self.design = machine.params.fence_design
        n = machine.params.num_cores
        self.num_cores = n
        self.leaves = [{} for _ in range(n)]
        self.counts = [{} for _ in range(n)]
        self.hot_lines = [{} for _ in range(n)]
        self.wb_peak = [0] * n
        self._chain_accum = [0] * n
        self._chain_open_t0 = [None] * n
        self._sf_open = [None] * n
        self._rec_open = [None] * n

    @property
    def now(self) -> int:
        return self._queue.now if self._queue is not None else 0

    def _add(self, core: int, leaf: str, cycles: float) -> None:
        d = self.leaves[core]
        d[leaf] = d.get(leaf, 0.0) + cycles

    def _note(self, core: int, key: str, n: int = 1) -> None:
        """Count a design event (tree metadata, not a conserved leaf)."""
        d = self.counts[core]
        d[key] = d.get(key, 0) + n

    # ------------------------------------------------------------------
    # bounce-chain clock (Core._drain_bounced / _drain_merged)
    # ------------------------------------------------------------------

    def store_bounce(self, core: int, store_id: int, word: int, line: int,
                     retries: int, ordered: bool) -> None:
        """The head store's first bounce opens a bounce→retry chain."""
        if retries == 1:
            self._chain_open_t0[core] = self.now

    def store_chain_end(self, core: int, store_id: int,
                        outcome: str = "merged") -> None:
        """The bounced head store finally merged: the chain closed."""
        t0 = self._chain_open_t0[core]
        if t0 is not None:
            self._chain_accum[core] += self.now - t0
            self._chain_open_t0[core] = None

    def _chain_time(self, core: int) -> int:
        """Total cycles this core has spent with an open chain so far."""
        t = self._chain_accum[core]
        t0 = self._chain_open_t0[core]
        if t0 is not None:
            t += self.now - t0
        return t

    # ------------------------------------------------------------------
    # sf episodes (Core._exec_fence / _run_strong_fence)
    # ------------------------------------------------------------------

    def sf_begin(self, core: int, demoted: bool = False) -> None:
        self._sf_open[core] = (self.now, self._chain_time(core), demoted)
        if demoted:
            self._note(core, "wee_demotions")  # only Wee demotes a wf
        elif self.design is FenceDesign.S_PLUS:
            self._note(core, "sf_flavours")  # S+: every fence ends up here

    def sf_end(self, core: int, extra: float = 0, **attrs) -> None:
        open_ = self._sf_open[core]
        if open_ is None:  # pragma: no cover - defensive
            return
        self._sf_open[core] = None
        if self.design is FenceDesign.CFENCE:
            return  # booked by cfence_charge, a reply's flight ago
        t0, snap, demoted = open_
        bounce = self._chain_time(core) - snap
        drain = (self.now - t0) - bounce
        prefix = "sf_demoted" if demoted else "sf"
        self._add(core, prefix + ".drain", drain)
        self._add(core, prefix + ".bounce", bounce)
        self._add(core, prefix + ".serialize", extra)

    def sf_abort(self, core: int, reason: str = "recovery") -> None:
        """A W+ rollback squashed the in-flight sf wait: no charge was
        (or will be) made for it, so drop the open-window snapshot."""
        self._sf_open[core] = None

    # ------------------------------------------------------------------
    # W+ recovery episodes (Core._recover)
    # ------------------------------------------------------------------

    def recovery_begin(self, core: int, fence_id: int, checkpoint,
                       dropped_stores: int, bs_cleared: int,
                       fences_unwound: int) -> None:
        self._rec_open[core] = (self.now, self._chain_time(core))

    def recovery_end(self, core: int, extra: float = 0) -> None:
        open_ = self._rec_open[core]
        if open_ is None:  # pragma: no cover - defensive
            return
        self._rec_open[core] = None
        t0, snap = open_
        bounce = self._chain_time(core) - snap
        drain = (self.now - t0) - bounce
        self._add(core, "recovery.drain", drain)
        self._add(core, "recovery.bounce", bounce)
        self._add(core, "recovery.restart", extra)

    # ------------------------------------------------------------------
    # remaining fence-stall and other-stall charges
    # ------------------------------------------------------------------

    def load_stall(self, core: int, t0: int, reason: str) -> None:
        self._add(core, "load_stall." + reason, self._queue.now - t0)

    def cfence_charge(self, core: int, charge: float) -> None:
        self._add(core, "cfence", charge)

    def wb_full_stall(self, core: int, t0: int) -> None:
        self._add(core, "wb_full", self._queue.now - t0)

    def mem_stall(self, core: int, t0: int, charge: float) -> None:
        self._add(core, "mem", charge)

    def rmw_stall(self, core: int, t0: int, charge: float) -> None:
        self._add(core, "rmw", charge)

    # ------------------------------------------------------------------
    # metadata (not part of the conservation-checked tree)
    # ------------------------------------------------------------------

    def order_promotion(self, core: int, count: int, conditional: bool) -> None:
        self._note(core, "cond_order_promotions" if conditional
                   else "order_promotions", count)

    def wf_convert(self, core: int, fence_id: int) -> None:
        self._note(core, "wee_conversions")

    def storm_demotion(self, core: int, until: int) -> None:
        self._note(core, "storm_demotions")

    def l1_miss(self, core: int, line: int, kind: str, t0: int,
                outcome: str) -> None:
        """One finished L1 miss transaction waited since *t0* on *line*."""
        table = self.hot_lines[core]
        entry = table.get(line)
        if entry is None:
            if len(table) >= HOT_LINE_CAP:
                entry = table.get("(other)")
                if entry is None:
                    entry = table["(other)"] = [0, 0]
            else:
                entry = table[line] = [0, 0]
        entry[0] += self._queue.now - t0
        entry[1] += 1

    def wb_depth(self, core: int, depth: int) -> None:
        if depth > self.wb_peak[core]:
            self.wb_peak[core] = depth

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def tree(self, label: Optional[str] = None) -> Dict[str, object]:
        """The conservation-checked attribution tree of the run."""
        coarse = [b.as_dict() for b in self._stats.breakdown]
        # stats.cycles is stamped at the end of Machine.run(); on an
        # aborted run (deadlock / strict-sanitizer postmortem) fall back
        # to the queue clock so idle stays meaningful
        cycles = self._stats.cycles or self.now
        return build_tree(
            self.num_cores, self.design, self.leaves, coarse,
            cycles, label=label,
        )

    def design_events(self) -> Dict[str, int]:
        """Aggregate design-event counters (tree metadata)."""
        out: Dict[str, int] = {}
        for d in self.counts:
            for k, v in d.items():
                out[k] = out.get(k, 0) + v
        return out

    def top_lines(self, k: int = 10) -> List[Dict[str, object]]:
        """Top-*k* hottest lines by accumulated L1 transaction wait."""
        merged: Dict[object, list] = {}
        for table in self.hot_lines:
            for line, (cycles, count) in table.items():
                entry = merged.setdefault(line, [0, 0])
                entry[0] += cycles
                entry[1] += count
        rows = sorted(merged.items(), key=lambda kv: -kv[1][0])[:k]
        return [
            {"line": line, "wait_cycles": cyc, "transactions": cnt}
            for line, (cyc, cnt) in rows
        ]


def _ignored(*args, **kwargs) -> None:
    """A tracer hook that refines no charge and counts no event."""


for _hook in HOOKS:
    if _hook not in vars(CycleAttribution):
        setattr(CycleAttribution, _hook, _ignored)


# ---------------------------------------------------------------------------
# tree construction (shared by the online engine and offline replay)
# ---------------------------------------------------------------------------


def _design_value(design) -> str:
    return design.value if hasattr(design, "value") else str(design)


def _core_node(cid: int, leaves: Dict[str, float],
               coarse: Dict[str, float], cycles: float) -> Dict[str, object]:
    g = leaves.get
    load_stall = {r: g("load_stall." + r, 0.0) for r in LOAD_STALL_REASONS}
    for key, value in leaves.items():
        if key.startswith("load_stall."):
            reason = key[len("load_stall."):]
            if reason not in load_stall:  # future-proof: unknown reason
                load_stall[reason] = value
    fence = {
        "total": coarse["fence_stall"],
        "sf": {
            "drain": g("sf.drain", 0.0),
            "bounce": g("sf.bounce", 0.0),
            "serialize": g("sf.serialize", 0.0),
        },
        "sf_demoted": {
            "drain": g("sf_demoted.drain", 0.0),
            "bounce": g("sf_demoted.bounce", 0.0),
            "serialize": g("sf_demoted.serialize", 0.0),
        },
        "recovery": {
            "drain": g("recovery.drain", 0.0),
            "bounce": g("recovery.bounce", 0.0),
            "restart": g("recovery.restart", 0.0),
        },
        "load_stall": load_stall,
        "cfence": g("cfence", 0.0),
    }
    other = {
        "total": coarse["other_stall"],
        "mem": g("mem", 0.0),
        "wb_full": g("wb_full", 0.0),
        "rmw": g("rmw", 0.0),
    }
    accounted = coarse["busy"] + coarse["fence_stall"] + coarse["other_stall"]
    return {
        "core": cid,
        "cycles": cycles,
        "busy": coarse["busy"],
        "fence_stall": fence,
        "other_stall": other,
        # negative on cycle-budget-cutoff runs whose trailing charges
        # (sf serialization, recovery restart) land past the final
        # clock; conservation of the stall buckets still holds.
        "idle": cycles - accounted,
    }


def _merge_into(acc: Dict[str, object], node: Dict[str, object]) -> None:
    for key, value in node.items():
        if key == "core":
            continue
        if isinstance(value, dict):
            sub = acc.setdefault(key, {})
            _merge_into(sub, value)
        else:
            acc[key] = acc.get(key, 0.0) + value


def build_tree(num_cores: int, design, leaves, coarse, cycles,
               label: Optional[str] = None) -> Dict[str, object]:
    """Assemble the attribution tree from flat per-core leaf maps.

    *leaves* is one flat dict per core ("sf.drain" -> cycles, ...);
    *coarse* is the matching list of ``CoreCycleBreakdown.as_dict()``
    buckets.  Both the online engine and the offline trace replay end
    here, so the two trees are structurally identical by construction.
    """
    cores = [
        _core_node(cid, leaves[cid], coarse[cid], cycles)
        for cid in range(num_cores)
    ]
    machine: Dict[str, object] = {}
    for node in cores:
        _merge_into(machine, node)
    tree = {
        "schema": SCHEMA,
        "design": _design_value(design),
        "num_cores": num_cores,
        "cycles": cycles,
        "cores": cores,
        # machine node: element-wise sum over cores ("cycles" is then
        # core-cycles, i.e. num_cores * wall cycles)
        "machine": machine,
    }
    if label:
        tree["label"] = label
    return tree


# ---------------------------------------------------------------------------
# conservation check
# ---------------------------------------------------------------------------


def conservation_errors(tree: Dict[str, object]) -> List[str]:
    """Exact-equality conservation check; returns human-readable errors.

    Empty list == the tree conserves: under every core, the fine
    leaves sum bit-exactly to their coarse bucket, and busy + buckets
    + idle reproduce the core's total cycles.
    """
    errors: List[str] = []
    for node in tree["cores"]:
        cid = node["core"]
        fence = node["fence_stall"]
        fence_leaves = (
            sum(fence["sf"].values())
            + sum(fence["sf_demoted"].values())
            + sum(fence["recovery"].values())
            + sum(fence["load_stall"].values())
            + fence["cfence"]
        )
        if fence_leaves != fence["total"]:
            errors.append(
                f"core {cid}: fence_stall leaves sum to {fence_leaves!r} "
                f"but the coarse bucket is {fence['total']!r}"
            )
        other = node["other_stall"]
        other_leaves = other["mem"] + other["wb_full"] + other["rmw"]
        if other_leaves != other["total"]:
            errors.append(
                f"core {cid}: other_stall leaves sum to {other_leaves!r} "
                f"but the coarse bucket is {other['total']!r}"
            )
        accounted = (node["busy"] + fence["total"] + other["total"]
                     + node["idle"])
        if accounted != node["cycles"]:
            errors.append(
                f"core {cid}: busy+fence+other+idle = {accounted!r} "
                f"!= cycles {node['cycles']!r}"
            )
    return errors


# ---------------------------------------------------------------------------
# flatten / diff
# ---------------------------------------------------------------------------


def flatten_node(node: Dict[str, object],
                 prefix: str = "") -> Dict[str, float]:
    """Flat "a.b.c" -> value view of one tree node (core or machine)."""
    out: Dict[str, float] = {}
    for key in sorted(node):
        if key == "core":
            continue
        value = node[key]
        if isinstance(value, dict):
            out.update(flatten_node(value, prefix + key + "."))
        else:
            out[prefix + key] = value
    return out


def diff_trees(base: Dict[str, object], other: Dict[str, object],
               label_base: Optional[str] = None,
               label_other: Optional[str] = None) -> Dict[str, object]:
    """Diff two attribution trees' machine aggregates.

    Rows cover every component that is nonzero on either side, sorted
    by absolute cycle movement, so the first rows *name the components
    that moved* between the two runs.
    """
    flat_base = flatten_node(base["machine"])
    flat_other = flatten_node(other["machine"])
    rows = []
    for path in sorted(set(flat_base) | set(flat_other)):
        x = flat_base.get(path, 0.0)
        y = flat_other.get(path, 0.0)
        if x == 0.0 and y == 0.0:
            continue
        rows.append({
            "path": path,
            "base": x,
            "other": y,
            "delta": y - x,
            "ratio": (y / x) if x else None,
        })
    rows.sort(key=lambda r: -abs(r["delta"]))
    return {
        "schema": DIFF_SCHEMA,
        "base": {
            "label": label_base or base.get("label"),
            "design": base["design"],
        },
        "other": {
            "label": label_other or other.get("label"),
            "design": other["design"],
        },
        "rows": rows,
    }
