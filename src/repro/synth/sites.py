"""Fence sites and placements: the search space of the synthesizer.

A **site** is a position in a fence-stripped program where a fence may
be inserted: ``FenceSite(tid, idx)`` puts the fence immediately before
op ``idx`` of thread ``tid``.  Under TSO the only reordering a fence
can forbid is a load overtaking a buffered store, so the ``auto``
extractor emits exactly the Shasha–Snir store→load boundaries: one
site before the first load that follows an (uncovered) store.  The
``annotated`` extractor instead takes the positions of the fences the
input program already carries — the "user ``@order`` annotation" mode:
strip a fenced program and synthesize over its own fence positions.

A **placement** assigns each chosen site a concrete flavour (wf or
sf).  Placements form a finite lattice under per-site strength
``none < wf < sf``; the synthesizer searches it bottom-up and reports
the minimal elements that satisfy the SC oracle (see
:mod:`repro.synth.search`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.params import FenceDesign, FenceFlavour, role_for_flavour
from repro.core import isa as ops
from repro.fences.base import SynthProfile
from repro.verify.generator import LitmusProgram

#: per-site strength score: the lattice order and the cost heuristic
#: (an sf is never cheaper than a wf at the same site)
STRENGTH = {None: 0, FenceFlavour.WF: 1, FenceFlavour.SF: 2}


class FenceSite(NamedTuple):
    """One candidate fence position: before op *idx* of thread *tid*
    in the fence-stripped program."""

    tid: int
    idx: int

    def label(self) -> str:
        return f"t{self.tid}.i{self.idx}"


def extract_sites(program: LitmusProgram,
                  mode: str = "auto") -> Tuple[FenceSite, ...]:
    """Candidate fence sites of *program*.

    ``auto``       store→load boundaries of the *stripped* program;
    ``annotated``  the positions of the program's own fences, mapped
                   to stripped-program indices (the program must carry
                   at least one fence).
    """
    if mode == "auto":
        return _auto_sites(program.stripped())
    if mode == "annotated":
        return _annotated_sites(program)
    raise ConfigError(f"unknown site mode {mode!r}; use auto|annotated")


def _auto_sites(stripped: LitmusProgram) -> Tuple[FenceSite, ...]:
    sites: List[FenceSite] = []
    for tid, body in enumerate(stripped.threads):
        pending_store = False
        for idx, op in enumerate(body):
            if isinstance(op, (ops.Store, ops.AtomicRMW)):
                pending_store = True
            elif isinstance(op, ops.Load) and pending_store:
                sites.append(FenceSite(tid, idx))
                pending_store = False
    return tuple(sites)


def _annotated_sites(program: LitmusProgram) -> Tuple[FenceSite, ...]:
    sites: List[FenceSite] = []
    for tid, body in enumerate(program.threads):
        stripped_idx = 0
        for op in body:
            if isinstance(op, ops.Fence):
                site = FenceSite(tid, stripped_idx)
                if site not in sites:  # adjacent fences collapse
                    sites.append(site)
            else:
                stripped_idx += 1
    if not sites:
        raise ConfigError(
            f"program {program.name!r} carries no fence annotations; "
            "use site mode 'auto'"
        )
    return tuple(sites)


@dataclass(frozen=True)
class Placement:
    """One (site -> flavour) assignment, canonically ordered."""

    #: ((FenceSite, FenceFlavour), ...) sorted by site
    assignment: Tuple[Tuple[FenceSite, FenceFlavour], ...]

    @classmethod
    def of(cls, mapping: Dict[FenceSite, FenceFlavour]) -> "Placement":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def empty(cls) -> "Placement":
        return cls(())

    @property
    def num_fences(self) -> int:
        return len(self.assignment)

    @property
    def num_sf(self) -> int:
        return sum(1 for _, f in self.assignment if f is FenceFlavour.SF)

    @property
    def num_wf(self) -> int:
        return sum(1 for _, f in self.assignment if f is FenceFlavour.WF)

    @property
    def score(self) -> int:
        """Total strength: a strict linear extension of the lattice
        order (weakening strictly lowers it)."""
        return sum(STRENGTH[f] for _, f in self.assignment)

    def key(self) -> str:
        """Stable human/JSON-readable identity, e.g.
        ``"t0.i2=sf,t1.i2=wf"`` (empty placement: ``"-"``)."""
        if not self.assignment:
            return "-"
        return ",".join(f"{s.label()}={f.value}" for s, f in self.assignment)

    def covers(self, other: "Placement") -> bool:
        """Lattice order: self is site-wise at least as strong as
        *other* (``none < wf < sf`` per site)."""
        mine = dict(self.assignment)
        return all(
            STRENGTH[mine.get(site)] >= STRENGTH[flavour]
            for site, flavour in other.assignment
        )

    def weakenings(self) -> Iterator["Placement"]:
        """Every one-step-weaker placement: drop one fence, or demote
        one sf to wf.  (Legality under a given design is the caller's
        concern — the audit skips weakenings the design cannot legally
        execute, since they were never real alternatives.)"""
        for i, (site, flavour) in enumerate(self.assignment):
            rest = self.assignment[:i] + self.assignment[i + 1:]
            yield Placement(rest)
            if flavour is FenceFlavour.SF:
                demoted = self.assignment[:i] + ((site, FenceFlavour.WF),) \
                    + self.assignment[i + 1:]
                yield Placement(demoted)

    def legal(self, profile: SynthProfile) -> bool:
        return profile.legal(self.num_wf, self.num_sf)

    def apply(self, stripped: LitmusProgram,
              design: FenceDesign) -> LitmusProgram:
        """Realize this placement on *stripped* as role-annotated
        Fence ops the given *design* executes with these flavours."""
        by_thread: Dict[int, List[Tuple[int, FenceFlavour]]] = {}
        for site, flavour in self.assignment:
            by_thread.setdefault(site.tid, []).append((site.idx, flavour))
        threads = [list(body) for body in stripped.threads]
        for tid, inserts in by_thread.items():
            if tid >= len(threads):
                raise ConfigError(
                    f"site thread {tid} out of range for "
                    f"{stripped.name!r} ({len(threads)} threads)"
                )
            for idx, flavour in sorted(inserts, reverse=True):
                role = role_for_flavour(design, flavour)
                if role is None:
                    raise ConfigError(
                        f"design {design} cannot express flavour "
                        f"{flavour.value} (site t{tid}.i{idx})"
                    )
                threads[tid].insert(idx, ops.Fence(role))
        placed = stripped.with_threads(threads)
        return placed  # keeps name/shape/vars; has_fences now True


def all_placements(sites: Tuple[FenceSite, ...],
                   profile: SynthProfile) -> Iterator[Placement]:
    """Every *legal* placement over *sites* under *profile*, in
    ascending (score, key) order — a linear extension of the lattice,
    so the bottom-up search visits every weakening of a placement
    before the placement itself."""
    import itertools

    choices: Tuple[Optional[FenceFlavour], ...] = (None,) + tuple(
        sorted(profile.flavours, key=lambda f: STRENGTH[f])
    )
    candidates = []
    for combo in itertools.product(choices, repeat=len(sites)):
        mapping = {s: f for s, f in zip(sites, combo) if f is not None}
        placement = Placement.of(mapping)
        if placement.legal(profile):
            candidates.append(placement)
    candidates.sort(key=lambda p: (p.score, p.key()))
    return iter(candidates)


def count_legal_placements(num_sites: int, profile: SynthProfile) -> int:
    """|legal assignments| without materializing them (routing guard
    between the exhaustive and the ddmin-descent search paths)."""
    from math import comb

    has_wf = FenceFlavour.WF in profile.flavours
    has_sf = FenceFlavour.SF in profile.flavours
    if not has_wf:
        return 2 ** num_sites
    if not has_sf:
        return 2 ** num_sites
    total = 0
    for wf in range(num_sites + 1):
        if profile.max_wf is not None and wf > profile.max_wf:
            break
        for sf in range(num_sites - wf + 1):
            if profile.needs_sf_with_wf and wf >= 2 and sf == 0:
                continue
            total += comb(num_sites, wf) * comb(num_sites - wf, sf)
    return total
