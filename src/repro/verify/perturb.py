"""Schedule perturbation: force different interleavings of one program.

The simulator is deterministic for a fixed ``(MachineParams, seed)``,
so exploring schedules means sweeping the machine knobs that move the
relative timing of stores, fences and loads:

* the machine **seed** (thread RNG streams),
* **NoC hop latency** (how long coherence transactions stay in flight),
* **write-buffer depth** (how many pre-fence stores can pile up),
* **BS capacity** (when post-fence loads start stalling), and
* the **bounce retry back-off** (the cadence of fence-group collisions).

Each :class:`SchedulePoint` is one concrete assignment; the verifier
runs every program × design under several points.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from typing import Iterator, List

from repro.common.params import FenceDesign, MachineParams

#: watchdog period for verification runs: small enough that a genuine
#: deadlock surfaces in milliseconds of host time, large enough that a
#: cold-miss burst (~200 cycles) can never trip it.
VERIFY_WATCHDOG_INTERVAL = 5_000

#: hard cycle cap per verification run (a litmus program finishes in a
#: few thousand cycles; hitting the cap means livelock).
VERIFY_MAX_CYCLES = 200_000


@dataclass(frozen=True)
class SchedulePoint:
    """One point of the schedule-exploration sweep.

    The optional NoC-jitter fields arm the point with a protocol-legal
    :class:`~repro.faults.plan.FaultPlan` delaying a fraction of
    messages (``injector()``).  Global machine knobs alone cannot
    stretch one thread's write-buffer drain past another's — the
    asymmetric interleavings that separate a single-fence placement
    from a correct one — but seed-dependent message delays can.  The
    fence synthesizer's adversary points use this; plain verify points
    keep the fields at 0 and behave exactly as before.
    """

    seed: int = 1
    mesh_hop_cycles: int = 5
    write_buffer_entries: int = 64
    bs_entries: int = 32
    bounce_retry_cycles: int = 20
    #: fraction of NoC messages receiving extra delivery latency
    noc_jitter_rate: float = 0.0
    #: max extra cycles per delayed message (0 disarms the jitter)
    noc_jitter_max_cycles: int = 0

    @property
    def jittered(self) -> bool:
        return self.noc_jitter_rate > 0 and self.noc_jitter_max_cycles > 0

    def injector(self):
        """A fresh FaultInjector for this point's jitter plan, or None
        when the point is unarmed (injectors are single-run objects)."""
        if not self.jittered:
            return None
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(
            scenario="schedule_jitter",
            seed=self.seed,
            noc_delay_rate=self.noc_jitter_rate,
            noc_delay_max_cycles=self.noc_jitter_max_cycles,
        )
        return FaultInjector(plan)

    def params(
        self, design: FenceDesign, num_cores: int, recovery: bool = True
    ) -> MachineParams:
        """Interleaving-exact machine parameters for this point."""
        return _point_params(
            self.mesh_hop_cycles, self.write_buffer_entries,
            self.bs_entries, self.bounce_retry_cycles,
            design, num_cores, recovery,
        )


@functools.lru_cache(maxsize=None)
def _point_params(
    mesh_hop_cycles: int, write_buffer_entries: int, bs_entries: int,
    bounce_retry_cycles: int, design: FenceDesign, num_cores: int,
    recovery: bool,
) -> MachineParams:
    # a campaign repeats each combination hundreds of times, and
    # MachineParams is frozen: one validated instance serves them all
    return MachineParams(
        num_cores=num_cores,
        num_banks=num_cores,
        batch_cycles=0,
        track_dependences=True,
        mesh_hop_cycles=mesh_hop_cycles,
        write_buffer_entries=write_buffer_entries,
        bs_entries=bs_entries,
        bounce_retry_cycles=bounce_retry_cycles,
        watchdog_interval=VERIFY_WATCHDOG_INTERVAL,
        max_cycles=VERIFY_MAX_CYCLES,
        fence_design=design,
        wplus_recovery_enabled=recovery,
    )


#: the sweep axes (kept small: values are multiplied by seeds × designs)
HOP_CYCLES = (2, 5, 11)
WB_DEPTHS = (2, 8, 64)
BS_CAPS = (1, 4, 32)
RETRY_CYCLES = (6, 20, 45)

#: the paper's default timing, always explored first
DEFAULT_POINT = SchedulePoint()


def schedule_points(seed: int, count: int) -> List[SchedulePoint]:
    """*count* reproducible points: the default timing first, then a
    random walk over the sweep axes with distinct machine seeds."""
    rng = random.Random(seed)
    points = [DEFAULT_POINT]
    while len(points) < count:
        points.append(
            SchedulePoint(
                seed=rng.randrange(1, 1_000_000),
                mesh_hop_cycles=rng.choice(HOP_CYCLES),
                write_buffer_entries=rng.choice(WB_DEPTHS),
                bs_entries=rng.choice(BS_CAPS),
                bounce_retry_cycles=rng.choice(RETRY_CYCLES),
            )
        )
    return points[:count]


#: jitter arming for adversary points: rates × magnitudes strong enough
#: to stretch one thread's drain past another's fence window, bounded
#: well inside the verify cycle cap (all protocol-legal)
JITTER_RATES = (0.2, 0.3, 0.4)
JITTER_MAX_CYCLES = (120, 300)


def adversary_points(seed: int, count: int) -> List[SchedulePoint]:
    """*count* reproducible points for fence synthesis: the default
    timing first, then alternating plain sweep points and NoC-jitter-
    armed points.

    Prefix-stable by construction: ``adversary_points(s, n)`` is a
    prefix of ``adversary_points(s, m)`` for n <= m, so re-verifying a
    synthesized placement at a larger budget strictly adds schedules.
    """
    rng = random.Random(seed ^ 0x5EED_AD5A)
    points = [DEFAULT_POINT]
    while len(points) < count:
        base = SchedulePoint(
            seed=rng.randrange(1, 1_000_000),
            mesh_hop_cycles=rng.choice(HOP_CYCLES),
            write_buffer_entries=rng.choice(WB_DEPTHS),
            bs_entries=rng.choice(BS_CAPS),
            bounce_retry_cycles=rng.choice(RETRY_CYCLES),
        )
        # every second point is jitter-armed (drawn either way so the
        # plain points do not depend on how the armed ones draw)
        rate = rng.choice(JITTER_RATES)
        max_cycles = rng.choice(JITTER_MAX_CYCLES)
        if len(points) % 2 == 0:
            base = replace(base, noc_jitter_rate=rate,
                           noc_jitter_max_cycles=max_cycles)
        points.append(base)
    return points[:count]


def iter_points(seed: int) -> Iterator[SchedulePoint]:
    """Endless stream of schedule points (budget-bounded callers)."""
    rng = random.Random(seed)
    yield DEFAULT_POINT
    while True:
        yield SchedulePoint(
            seed=rng.randrange(1, 1_000_000),
            mesh_hop_cycles=rng.choice(HOP_CYCLES),
            write_buffer_entries=rng.choice(WB_DEPTHS),
            bs_entries=rng.choice(BS_CAPS),
            bounce_retry_cycles=rng.choice(RETRY_CYCLES),
        )
