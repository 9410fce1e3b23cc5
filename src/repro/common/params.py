"""Machine parameters (paper Table 2) and fence-design selection.

``MachineParams`` carries every knob of the simulated multicore.  The
defaults reproduce Table 2 of the paper: an 8-core mesh multicore with
private 32 KB L1s, a shared banked L2, a full-map NUMA directory under a
MESI protocol, and TSO cores with a 140-entry ROB and a 64-entry write
buffer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError


class FenceDesign(enum.Enum):
    """The five fence environments evaluated in the paper (Table 1).

    * ``S_PLUS``  — every fence is a conventional Strong Fence (sf).
    * ``WS_PLUS`` — asymmetric groups with at most one Weak Fence (wf);
      wf needs the BS plus the Order bit/operation.
    * ``SW_PLUS`` — any asymmetric group; wf needs word-granularity BS
      info and the Conditional Order operation.
    * ``W_PLUS``  — any group, including all-wf groups; wf needs
      checkpointing, deadlock timeout and rollback recovery.
    * ``WEE``     — WeeFence with its Global Reorder Table and Pending
      Set (the aggressive global-state baseline).
    """

    S_PLUS = "S+"
    WS_PLUS = "WS+"
    SW_PLUS = "SW+"
    W_PLUS = "W+"
    WEE = "Wee"
    #: extension (not part of the paper's evaluation): Location-based
    #: Memory Fences [Ladan-Mozes et al., SPAA'11], the related-work
    #: design of §8 — an LL/SC-style fence bound to one write that is
    #: cheap while the location stays exclusively cached and falls back
    #: to a conventional fence when another thread touched it.
    LMF = "l-mf"
    #: extension: Conditional Fences [Lin/Nagarajan/Gupta, PACT'10],
    #: the other §8 design — a fence stalls only while an *associate*
    #: fence executes concurrently, detected via a centralized table
    #: (the centralization the paper criticizes).
    CFENCE = "C-fence"

    def __str__(self):  # pragma: no cover - cosmetic
        return self.value


#: Designs whose weak fence carries a Bypass Set.
BS_DESIGNS = frozenset(
    {FenceDesign.WS_PLUS, FenceDesign.SW_PLUS, FenceDesign.W_PLUS, FenceDesign.WEE}
)


class FenceRole(enum.Enum):
    """Which side of an asymmetric group a fence instruction is on.

    Workload code annotates each fence with a role; the active
    :class:`FenceDesign` maps the role to an sf or a wf flavour.  The
    paper's examples: the work-stealing *owner* and the STM *reader* are
    ``CRITICAL`` (frequent, performance-sensitive), while the *thief*
    and the STM *writer* are ``STANDARD``.
    """

    CRITICAL = "critical"
    STANDARD = "standard"


class FenceFlavour(enum.Enum):
    """Concrete fence behaviour executed by a core."""

    SF = "sf"
    WF = "wf"


def flavour_for(design: FenceDesign, role: FenceRole) -> FenceFlavour:
    """Map a fence's static role to its dynamic flavour under *design*.

    * S+ turns every fence into an sf.
    * WS+ and SW+ use a wf for the critical thread and an sf elsewhere.
    * W+ uses wfs everywhere (its recovery hardware tolerates all-wf
      groups).
    * Wee uses its aggressive fence everywhere; the GRT confinement rule
      may later demote individual dynamic instances to sf behaviour.
    """
    if design in (FenceDesign.S_PLUS, FenceDesign.LMF, FenceDesign.CFENCE):
        # l-mf never lets post-fence accesses complete early: it is a
        # strong fence whose *cost* depends on the location's state.
        # C-fence likewise maps to the strong path; its policy decides
        # per dynamic instance whether any stall is needed at all.
        return FenceFlavour.SF
    if design in (FenceDesign.WS_PLUS, FenceDesign.SW_PLUS):
        if role is FenceRole.CRITICAL:
            return FenceFlavour.WF
        return FenceFlavour.SF
    # W+ and Wee run weak fences on every thread.
    return FenceFlavour.WF


def role_for_flavour(design: FenceDesign, flavour: FenceFlavour):
    """Inverse of :func:`flavour_for`: a role that *design* executes as
    *flavour*, or None when the design cannot express it.

    Fence synthesis uses this to realize a concrete (site -> flavour)
    placement as role-annotated :class:`~repro.core.isa.Fence` ops: S+
    (and the §8 extensions) cannot express a wf, while W+ and Wee
    cannot express an sf — their fences are weak on every thread and
    only *dynamic* demotion (Wee confinement, the W+ recovery drain) can
    re-introduce sf behaviour.
    """
    for role in (FenceRole.STANDARD, FenceRole.CRITICAL):
        if flavour_for(design, role) is flavour:
            return role
    return None


def mesh_side(tiles: int) -> int:
    """Side of the smallest square mesh holding *tiles* (>= 1) tiles."""
    return math.isqrt(tiles - 1) + 1  # == ceil(sqrt(tiles))


@dataclass(frozen=True)
class MachineParams:
    """Configuration of the simulated multicore (defaults = paper Table 2)."""

    # --- topology ---------------------------------------------------
    num_cores: int = 8
    #: L2/directory banks (one per core in the paper's tiled design).
    num_banks: int = 8

    # --- core -------------------------------------------------------
    issue_width: int = 4
    rob_entries: int = 140
    write_buffer_entries: int = 64

    # --- memory hierarchy -------------------------------------------
    line_bytes: int = 32
    word_bytes: int = 4
    l1_size_bytes: int = 32 * 1024
    l1_ways: int = 4
    l1_hit_cycles: int = 2
    l2_bank_size_bytes: int = 128 * 1024
    l2_ways: int = 8
    l2_hit_cycles: int = 11
    memory_cycles: int = 200

    # --- interconnect -----------------------------------------------
    mesh_hop_cycles: int = 5
    link_bytes: int = 32  # 256-bit links
    #: NUMA bank-interleaving block size (bytes); lines within one block
    #: share a home directory module.
    bank_interleave_bytes: int = 512

    # --- fence microarchitecture ------------------------------------
    #: max Bypass Set entries per core (paper: "up to 32 entries").
    bs_entries: int = 32
    #: pipeline-serialization cost of a conventional fence, on top of
    #: the write-buffer drain (calibration knob, see DESIGN.md).
    sf_base_cycles: int = 30
    #: retry back-off for a bounced write transaction (roughly one
    #: request round trip; the first retry of a promoted write already
    #: carries the Order bit).
    bounce_retry_cycles: int = 20
    #: W+ deadlock-suspicion timeout (cycles of simultaneous
    #: bouncing-and-being-bounced before recovery triggers).  A couple
    #: of bounce round trips: long enough for transient (non-cyclic)
    #: interference to clear, short enough that genuine deadlocks do
    #: not serialize the colliding threads for long.
    wplus_timeout_cycles: int = 250
    #: per-core jitter added to the timeout to avoid recovery livelock.
    wplus_timeout_jitter_cycles: int = 19
    #: cost of restoring the register checkpoint on a W+ recovery.
    wplus_recovery_cycles: int = 20
    #: disable to model the *naive* global-state-free weak fence of
    #: Fig. 3a, which deadlocks instead of recovering (demo/tests).
    wplus_recovery_enabled: bool = True
    #: ablation: an *idealized* WeeFence with an atomically-consistent
    #: global GRT view across all directory modules — the hardware the
    #: paper argues cannot be built (§2.3).  No confinement demotions,
    #: no cross-bank stalls; quantifies the implementability tax.
    wee_ideal: bool = False

    # --- simulation engine -------------------------------------------
    #: micro-batch window for purely-local operations (0 disables
    #: batching; litmus tests disable it for exact interleaving).
    batch_cycles: int = 24
    #: global no-progress watchdog period for deadlock detection.
    watchdog_interval: int = 50_000

    # --- measurement -------------------------------------------------
    fence_design: FenceDesign = FenceDesign.S_PLUS
    #: record rf/co/fr edges for the SC-violation checker (slow; only
    #: enable for litmus-sized runs).
    track_dependences: bool = False
    #: hard cap on simulated cycles (0 = unlimited).
    max_cycles: int = 0

    def __post_init__(self):
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if self.num_banks < 1:
            raise ConfigError("num_banks must be >= 1")
        if self.line_bytes % self.word_bytes:
            raise ConfigError("line_bytes must be a multiple of word_bytes")
        for name in ("issue_width", "write_buffer_entries", "l1_ways", "bs_entries"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        l1_lines = self.l1_size_bytes // self.line_bytes
        if l1_lines % self.l1_ways:
            raise ConfigError("L1 lines must divide evenly into ways")

    # --- derived geometry --------------------------------------------

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes

    @property
    def l1_sets(self) -> int:
        return self.l1_size_bytes // (self.line_bytes * self.l1_ways)

    @property
    def mesh_dim(self) -> int:
        """Side of the square-ish mesh holding ``num_cores`` tiles."""
        return mesh_side(self.num_cores)

    def with_design(self, design: FenceDesign) -> "MachineParams":
        """Copy of these params running under a different fence design."""
        return replace(self, fence_design=design)

    def with_cores(self, num_cores: int) -> "MachineParams":
        """Copy with a different core count (banks scale with cores)."""
        return replace(self, num_cores=num_cores, num_banks=num_cores)


#: The exact rows of the paper's Table 2, for the Table-2 bench target.
TABLE2_ROWS = (
    ("Architecture", "Multicore with 4-32 cores (default is 8)"),
    ("Core", "Out of order, 4-issue wide, 2.0 GHz"),
    ("ROB; write buffer", "140 entries; 64 entries"),
    ("L1 cache", "Private 32KB WB, 4-way, 2-cycle RT, 32B lines"),
    ("L2 cache", "Shared with per-core 128KB WB banks; "
                 "a bank: 8-way, 11-cycle RT (local), 32B lines"),
    ("Bypass Set (BS)", "Up to 32 entries per core, 4B per entry"),
    ("Cache coherence", "MESI under TSO, full-mapped NUMA directory"),
    ("On-chip network", "2D-mesh, 5 cycles/hop, 256-bit links"),
    ("Off-chip memory", "Connected to one network port, 200-cycle RT"),
)
