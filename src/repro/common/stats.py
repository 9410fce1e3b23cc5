"""Simulation statistics.

The paper's figures plot per-core cycle breakdowns (Busy / Fence Stall /
Other Stall) and Table 4 reports event rates (fences per 1000
instructions, BS occupancy, bounces, retries, traffic, recoveries).
:class:`MachineStats` accumulates all of it; cores and protocol agents
write into it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Retention cap for the BS-occupancy sample list. Aggregates (mean /
#: max) are tracked exactly in running form regardless of this cap; the
#: retained list is only the shape-preserving timeline, decimated by
#: stride doubling once it fills.
BS_SAMPLE_CAP = 2048


class CoreCycleBreakdown:
    """Per-core cycle accounting matching the stacked bars of Figs 8/10/11."""

    __slots__ = ("busy", "fence_stall", "other_stall")

    def __init__(self):
        self.busy = 0.0
        self.fence_stall = 0.0
        self.other_stall = 0.0

    @property
    def total(self) -> float:
        return self.busy + self.fence_stall + self.other_stall

    def as_dict(self) -> Dict[str, float]:
        return {
            "busy": self.busy,
            "fence_stall": self.fence_stall,
            "other_stall": self.other_stall,
        }


class MachineStats:
    """All counters for one simulation run."""

    __slots__ = (
        "num_cores", "breakdown", "instructions", "sf_executed",
        "wf_executed", "wee_sf_conversions",
        "bs_occupancy_samples",
        "bs_occupancy_count", "bs_occupancy_sum", "bs_occupancy_max",
        "_bs_sample_stride", "_bs_sample_phase",
        "bs_insertions", "bs_overflow_stalls", "load_replays", "bounces",
        "write_retries", "bounced_writes", "order_ops", "cond_order_ops",
        "cond_order_failures", "wplus_timeouts", "wplus_recoveries",
        "cutoff_in_recovery", "lmf_fast", "lmf_fallbacks", "cfence_skips",
        "cfence_stalls", "l1_hits", "l1_misses", "l1_evictions",
        "dirty_writebacks", "bs_keep_sharer", "network_bytes",
        "retry_bytes", "coherence_transactions", "txn_commits",
        "txn_aborts", "txn_cycles", "tasks_executed", "tasks_stolen",
        "cycles",
    )

    def __init__(self, num_cores: int):
        self.num_cores = num_cores
        self.breakdown = [CoreCycleBreakdown() for _ in range(num_cores)]

        # instruction / fence counts (per core)
        self.instructions = [0] * num_cores
        self.sf_executed = [0] * num_cores
        self.wf_executed = [0] * num_cores
        #: Wee fences demoted to sf by the GRT confinement rule.
        self.wee_sf_conversions = [0] * num_cores

        # bypass-set behaviour
        self.bs_occupancy_samples: List[int] = []
        # exact running aggregates over *all* samples (the retained list
        # above is bounded, so mean/max must not be derived from it)
        self.bs_occupancy_count = 0
        self.bs_occupancy_sum = 0
        self.bs_occupancy_max = 0
        self._bs_sample_stride = 1
        self._bs_sample_phase = 0
        self.bs_insertions = 0
        self.bs_overflow_stalls = 0
        #: post-fence loads replayed because an invalidation raced the
        #: load's BS insertion (the line vanished while it was in flight).
        self.load_replays = 0
        #: external write transactions rejected by some BS.
        self.bounces = 0
        #: retries issued by bounced writers (a write bounced N times
        #: contributes N retries).
        self.write_retries = 0
        #: distinct writes that bounced at least once.
        self.bounced_writes = 0

        # order / conditional-order transactions
        self.order_ops = 0
        self.cond_order_ops = 0
        self.cond_order_failures = 0

        # W+ recovery
        self.wplus_timeouts = 0
        self.wplus_recoveries = 0
        #: a max_cycles cutoff landed while some core was mid-recovery
        #: (checkpoint restored, write buffer still draining); the run's
        #: ``completed=False`` is then a budget artifact, not a hang.
        self.cutoff_in_recovery = False

        # l-mf extension: store-conditional fast paths vs fallbacks
        self.lmf_fast = 0
        self.lmf_fallbacks = 0

        # C-fence extension: fences skipped (no associate) vs stalled
        self.cfence_skips = 0
        self.cfence_stalls = 0

        # memory system
        self.l1_hits = 0
        self.l1_misses = 0
        self.l1_evictions = 0
        self.dirty_writebacks = 0
        self.bs_keep_sharer = 0
        self.network_bytes = 0
        #: bytes attributable to bounce retries (Table 4 traffic cols).
        self.retry_bytes = 0
        self.coherence_transactions = 0

        # STM-level (filled by the txn runner, not the machine)
        self.txn_commits = 0
        self.txn_aborts = 0
        self.txn_cycles = 0

        # work-stealing-level
        self.tasks_executed = 0
        self.tasks_stolen = 0

        # final clock, filled in by Machine.run()
        self.cycles = 0

    # --- snapshot ------------------------------------------------------

    def _plain(self, name: str):
        value = getattr(self, name)
        if name == "breakdown":
            return tuple((b.busy, b.fence_stall, b.other_stall)
                         for b in value)
        return tuple(value) if type(value) is list else value

    def snapshot(self) -> tuple:
        """``(slot, value)`` for each counter that differs from a fresh
        instance's: lists as tuples, ``breakdown`` as (busy, fence,
        other) triples."""
        fresh = MachineStats(self.num_cores)
        return tuple((name, value) for name in self.__slots__
                     if (value := self._plain(name)) != fresh._plain(name))

    def restore(self, snapshot: tuple) -> None:
        """Give fresh counters the values :meth:`snapshot` took."""
        for name, value in snapshot:
            if name == "breakdown":
                for b, (busy, fence, other) in zip(self.breakdown, value):
                    b.busy, b.fence_stall, b.other_stall = busy, fence, other
            elif type(value) is tuple:
                getattr(self, name)[:] = value
            else:
                setattr(self, name, value)

    # --- accumulation helpers ----------------------------------------

    def add_busy(self, core: int, cycles: float) -> None:
        self.breakdown[core].busy += cycles

    def add_fence_stall(self, core: int, cycles: float) -> None:
        self.breakdown[core].fence_stall += cycles

    def add_other_stall(self, core: int, cycles: float) -> None:
        self.breakdown[core].other_stall += cycles

    def sample_bs_occupancy(self, entries: int) -> None:
        """Record one wf-completion BS occupancy sample.

        The mean/max come from exact running aggregates; the retained
        list is capped at :data:`BS_SAMPLE_CAP` by keeping every
        stride-th sample and doubling the stride (dropping every other
        retained sample) each time the cap is hit, so arbitrarily long
        runs hold a bounded, uniformly-thinned timeline.
        """
        self.bs_occupancy_count += 1
        self.bs_occupancy_sum += entries
        if entries > self.bs_occupancy_max:
            self.bs_occupancy_max = entries
        self._bs_sample_phase += 1
        if self._bs_sample_phase >= self._bs_sample_stride:
            self._bs_sample_phase = 0
            samples = self.bs_occupancy_samples
            samples.append(entries)
            if len(samples) >= BS_SAMPLE_CAP:
                del samples[::2]
                self._bs_sample_stride *= 2

    # --- derived metrics (Table 4 columns) ----------------------------

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions)

    @property
    def total_sf(self) -> int:
        return sum(self.sf_executed)

    @property
    def total_wf(self) -> int:
        return sum(self.wf_executed)

    def per_kilo_inst(self, count: int) -> float:
        """Events per 1000 dynamic instructions."""
        insts = self.total_instructions
        return 1000.0 * count / insts if insts else 0.0

    @property
    def sf_per_kilo_inst(self) -> float:
        return self.per_kilo_inst(self.total_sf)

    @property
    def wf_per_kilo_inst(self) -> float:
        return self.per_kilo_inst(self.total_wf)

    @property
    def mean_bs_lines(self) -> float:
        """Average #line addresses in the BS of a wf (Table 4 col 5).

        Exact over every sample ever taken, independent of how many the
        bounded ``bs_occupancy_samples`` list still retains.
        """
        if not self.bs_occupancy_count:
            return 0.0
        return self.bs_occupancy_sum / self.bs_occupancy_count

    @property
    def bounces_per_wf(self) -> float:
        wf = self.total_wf
        return self.bounced_writes / wf if wf else 0.0

    @property
    def retries_per_bounced_write(self) -> float:
        if not self.bounced_writes:
            return 0.0
        return self.write_retries / self.bounced_writes

    @property
    def recoveries_per_wf(self) -> float:
        wf = self.total_wf
        return self.wplus_recoveries / wf if wf else 0.0

    @property
    def traffic_increase_pct(self) -> float:
        """Extra network bytes due to bounce retries, as a percentage."""
        base = self.network_bytes - self.retry_bytes
        return 100.0 * self.retry_bytes / base if base else 0.0

    # --- aggregate breakdown -------------------------------------------

    def total_breakdown(self) -> Dict[str, float]:
        """Sum of per-core breakdowns (for the averaged stacked bars)."""
        out = {"busy": 0.0, "fence_stall": 0.0, "other_stall": 0.0}
        for b in self.breakdown:
            out["busy"] += b.busy
            out["fence_stall"] += b.fence_stall
            out["other_stall"] += b.other_stall
        return out

    def to_dict(self) -> Dict[str, object]:
        """Every counter as one JSON-serializable dict.

        This is the *full* machine-visible state of a run — the golden
        trace tests assert it is bit-identical across simulator
        changes, so every counter added to this class must appear here.
        """
        return {
            "num_cores": self.num_cores,
            "breakdown": [b.as_dict() for b in self.breakdown],
            "instructions": list(self.instructions),
            "sf_executed": list(self.sf_executed),
            "wf_executed": list(self.wf_executed),
            "wee_sf_conversions": list(self.wee_sf_conversions),
            "bs_occupancy_samples": list(self.bs_occupancy_samples),
            "bs_insertions": self.bs_insertions,
            "bs_overflow_stalls": self.bs_overflow_stalls,
            "load_replays": self.load_replays,
            "bounces": self.bounces,
            "write_retries": self.write_retries,
            "bounced_writes": self.bounced_writes,
            "order_ops": self.order_ops,
            "cond_order_ops": self.cond_order_ops,
            "cond_order_failures": self.cond_order_failures,
            "wplus_timeouts": self.wplus_timeouts,
            "wplus_recoveries": self.wplus_recoveries,
            "cutoff_in_recovery": self.cutoff_in_recovery,
            "lmf_fast": self.lmf_fast,
            "lmf_fallbacks": self.lmf_fallbacks,
            "cfence_skips": self.cfence_skips,
            "cfence_stalls": self.cfence_stalls,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l1_evictions": self.l1_evictions,
            "dirty_writebacks": self.dirty_writebacks,
            "bs_keep_sharer": self.bs_keep_sharer,
            "network_bytes": self.network_bytes,
            "retry_bytes": self.retry_bytes,
            "coherence_transactions": self.coherence_transactions,
            "txn_commits": self.txn_commits,
            "txn_aborts": self.txn_aborts,
            "txn_cycles": self.txn_cycles,
            "tasks_executed": self.tasks_executed,
            "tasks_stolen": self.tasks_stolen,
            "cycles": self.cycles,
        }

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline metrics (used by the eval harness)."""
        t = self.total_breakdown()
        return {
            "cycles": self.cycles,
            "instructions": self.total_instructions,
            "busy": t["busy"],
            "fence_stall": t["fence_stall"],
            "other_stall": t["other_stall"],
            "sf_per_ki": self.sf_per_kilo_inst,
            "wf_per_ki": self.wf_per_kilo_inst,
            "bs_lines": self.mean_bs_lines,
            "bounces_per_wf": self.bounces_per_wf,
            "retries_per_wr": self.retries_per_bounced_write,
            "traffic_incr_pct": self.traffic_increase_pct,
            "recoveries_per_wf": self.recoveries_per_wf,
            "txn_commits": self.txn_commits,
            "txn_aborts": self.txn_aborts,
            "tasks_executed": self.tasks_executed,
            "tasks_stolen": self.tasks_stolen,
            "network_bytes": self.network_bytes,
        }
