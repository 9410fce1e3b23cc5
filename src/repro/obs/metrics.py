"""Interval metrics: bounded per-epoch timeseries of machine state.

The :class:`MetricsCollector` rides the machine's own event queue: a
recurring self-rescheduling event (label ``obs.metrics``) samples the
machine every ``interval`` simulated cycles.  Samples are *reads only*
— the pump never mutates core, cache or directory state — so attaching
a collector cannot change simulated behaviour (the golden-trace tests
pin this).

Each sample captures

* per-core: write-buffer depth, Bypass-Set lines, incomplete fences,
  and the **deltas** of the Busy / Fence-Stall / Other-Stall cycle
  breakdown plus instructions since the previous sample;
* machine-wide deltas of the bounce/retry/recovery/traffic counters,
  and the instantaneous count of cores with a bouncing head store
  ("outstanding bounces").

The buffer is bounded (``max_samples``): when it fills, adjacent
samples are *merged* pairwise (delta fields summed, instantaneous
fields taken from the later sample) and the sampling stride doubles —
so arbitrarily long runs keep a uniform, bounded timeline whose delta
columns still sum to the end-of-run totals, instead of growing without
limit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: default epoch length (cycles) between samples
DEFAULT_INTERVAL = 1000
#: default retained-sample bound
DEFAULT_MAX_SAMPLES = 512

#: per-epoch delta fields (summed when samples merge); the remaining
#: fields are instantaneous and the later sample's value wins.
_DELTA_KEYS = (
    "bounces_delta", "write_retries_delta", "recoveries_delta",
    "network_bytes_delta", "l1_misses_delta",
)
_DELTA_LIST_KEYS = (
    "busy_delta", "fence_stall_delta", "other_stall_delta",
    "instructions_delta",
)


def _merge(older: Dict[str, object], newer: Dict[str, object]) -> Dict[str, object]:
    """Fold two adjacent samples into one epoch twice as long."""
    out = dict(newer)
    for key in _DELTA_KEYS:
        out[key] = older[key] + newer[key]
    for key in _DELTA_LIST_KEYS:
        out[key] = [a + b for a, b in zip(older[key], newer[key])]
    return out


class MetricsCollector:
    """Samples one machine on a fixed simulated-cycle period."""

    def __init__(self, machine, interval: int = DEFAULT_INTERVAL,
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        if interval <= 0:
            raise ValueError(f"metrics interval must be positive: {interval}")
        self.machine = machine
        self.base_interval = interval
        self.interval = interval        # current stride (doubles on decimation)
        self.max_samples = max(2, max_samples)
        self.samples: List[Dict[str, object]] = []
        #: total ticks taken (including ones later decimated away)
        self.ticks = 0
        self._stopped = False
        self._event = None
        self._last = None  # previous cumulative snapshot for deltas

    # ------------------------------------------------------------------
    # pump
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the pump (called by ``Machine.run``)."""
        self._stopped = False
        self._last = self._cumulative()
        self._event = self.machine.queue.schedule(
            self.interval, self._tick, "obs.metrics"
        )

    def stop(self) -> None:
        """Disarm: the in-heap event (if any) becomes a no-op."""
        self._stopped = True
        if self._event is not None:
            self.machine.queue.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        self._event = None
        self.ticks += 1
        self.samples.append(self._sample())
        if len(self.samples) > self.max_samples:
            # fold adjacent epochs pairwise and double the stride
            s = self.samples
            merged = [_merge(s[i], s[i + 1])
                      for i in range(0, len(s) - 1, 2)]
            if len(s) % 2:
                merged.append(s[-1])
            self.samples = merged
            self.interval *= 2
        self._event = self.machine.queue.schedule(
            self.interval, self._tick, "obs.metrics"
        )

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def _cumulative(self) -> Dict[str, object]:
        """Cumulative counters the per-epoch deltas are derived from."""
        stats = self.machine.stats
        return {
            "busy": [b.busy for b in stats.breakdown],
            "fence_stall": [b.fence_stall for b in stats.breakdown],
            "other_stall": [b.other_stall for b in stats.breakdown],
            "instructions": list(stats.instructions),
            "bounces": stats.bounces,
            "write_retries": stats.write_retries,
            "wplus_recoveries": stats.wplus_recoveries,
            "network_bytes": stats.network_bytes,
            "l1_misses": stats.l1_misses,
        }

    def _sample(self) -> Dict[str, object]:
        machine = self.machine
        cur = self._cumulative()
        last = self._last
        self._last = cur
        cores = machine.cores
        sample = {
            "ts": machine.queue.now,
            "wb_depth": [len(core.wb) for core in cores],
            "bs_lines": [len(core.bs) for core in cores],
            "pending_fences": [len(core.pending_fences) for core in cores],
            "outstanding_bounces": sum(
                1 for core in cores if core.wb.any_bouncing()
            ),
            "busy_delta": [c - p for c, p in zip(cur["busy"], last["busy"])],
            "fence_stall_delta": [
                c - p for c, p in zip(cur["fence_stall"], last["fence_stall"])
            ],
            "other_stall_delta": [
                c - p for c, p in zip(cur["other_stall"], last["other_stall"])
            ],
            "instructions_delta": [
                c - p for c, p in zip(cur["instructions"],
                                      last["instructions"])
            ],
            "bounces_delta": cur["bounces"] - last["bounces"],
            "write_retries_delta": (
                cur["write_retries"] - last["write_retries"]
            ),
            "recoveries_delta": (
                cur["wplus_recoveries"] - last["wplus_recoveries"]
            ),
            "network_bytes_delta": (
                cur["network_bytes"] - last["network_bytes"]
            ),
            "l1_misses_delta": cur["l1_misses"] - last["l1_misses"],
        }
        return sample

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "base_interval": self.base_interval,
            "final_interval": self.interval,
            "ticks": self.ticks,
            "retained": len(self.samples),
            "samples": list(self.samples),
        }

    def summary(self) -> Dict[str, Optional[float]]:
        """Headline aggregates over the retained timeline."""
        if not self.samples:
            return {"retained": 0}
        n_cores = len(self.samples[0]["wb_depth"])
        mean_wb = sum(
            sum(s["wb_depth"]) for s in self.samples
        ) / (len(self.samples) * n_cores)
        mean_bs = sum(
            sum(s["bs_lines"]) for s in self.samples
        ) / (len(self.samples) * n_cores)
        peak_bouncing = max(s["outstanding_bounces"] for s in self.samples)
        return {
            "retained": len(self.samples),
            "interval": self.interval,
            "mean_wb_depth": mean_wb,
            "mean_bs_lines": mean_bs,
            "peak_outstanding_bounces": peak_bouncing,
        }
