"""Randomized litmus-program generation.

A :class:`LitmusProgram` is 2–4 per-thread lists of
:mod:`repro.core.isa` operations whose addresses are *symbolic
variable indices* (0, 1, 2, ...); the oracle runner maps each variable
to a freshly allocated simulated word before spawning the threads.

Shapes
------
``sb``     N-thread store-buffering ring (paper Fig. 1d/1e): thread *i*
           stores variable *i*, fences, loads variable *i+1 mod N*.
``mp``     message passing: producer stores data then flag, consumer
           loads flag then data.  TSO keeps both orders even without
           fences — a sanity shape.
``iriw``   independent reads of independent writes: two writers, two
           readers scanning in opposite orders.  Forbidden outcomes
           need non-multi-copy-atomic stores, which TSO (and this
           simulator's single memory image) never produces.
``random`` random loads/stores/computes over a small variable pool,
           with a fence inserted at every store→load transition (the
           Shasha–Snir full-fencing recipe, which restores SC under
           any correct design).

Under TSO the only reordering a fence can forbid is a load overtaking
a buffered store, so a fence-free program can race exactly when it has
a store→load site (:func:`store_load_sites`; Alglave et al., "Don't
sit on the fence"): the fence-stripped ``sb`` and ``random`` programs
can, ``mp`` and ``iriw`` cannot.

:func:`sb_ring`, :func:`mp` and :func:`iriw` build the fixed shapes
from explicit fence roles: the generator draws the roles from its
seed, and :mod:`repro.synth.programs` names the textbook instances.

Fence-role discipline: every generated program carries **at most one**
``CRITICAL`` thread so the same program is correctly fenced under
every design — WS+/SW+ require at most one wf per fence group (paper
§3.3.1/§3.3.2), while S+, W+ and Wee accept any assignment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.params import FenceRole
from repro.core import isa as ops

_STD = FenceRole.STANDARD


@dataclass(frozen=True)
class LitmusProgram:
    """A symbolic litmus program (addresses are variable indices)."""

    name: str
    shape: str
    #: number of shared variables; the runner allocates one simulated
    #: word per variable, each on its own cache line unless
    #: ``line_groups`` packs it with its neighbours
    num_vars: int
    #: per-thread op lists over symbolic addresses
    threads: Tuple[Tuple[object, ...], ...]
    #: variable indices the runner pre-warms into every L1 (shared
    #: variables; pads stay cold so fences stay incomplete for a while)
    warm_vars: Tuple[int, ...] = ()
    #: generator seed that produced this program (report reproducibility)
    seed: int = 0
    #: sizes of the leading variable groups that share one cache line
    #: each: ``(2, 2)`` puts v0/v1 on one line and v2/v3 on the next;
    #: the variables after the groups get a line each
    line_groups: Tuple[int, ...] = ()

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def op_count(self) -> int:
        return sum(len(t) for t in self.threads)

    @cached_property
    def fence_roles(self) -> frozenset:
        """The roles of the program's fences (empty: no fence)."""
        return frozenset(op.role for t in self.threads for op in t
                         if isinstance(op, ops.Fence))

    @property
    def has_fences(self) -> bool:
        return bool(self.fence_roles)

    def stripped(self) -> "LitmusProgram":
        """Copy with every fence removed (the SCV-hunting variant)."""
        return replace(
            self,
            name=f"{self.name}-nofence",
            threads=tuple(
                tuple(op for op in t if not isinstance(op, ops.Fence))
                for t in self.threads
            ),
        )

    def with_threads(self, threads) -> "LitmusProgram":
        return replace(
            self, threads=tuple(tuple(t) for t in threads)
        )

    def describe(self) -> List[List[str]]:
        """Readable per-thread op listing for reports."""
        return [[_op_str(op) for op in t] for t in self.threads]


def _op_str(op) -> str:
    if isinstance(op, ops.Store):
        return f"St v{op.addr}={op.value}"
    if isinstance(op, ops.Load):
        return f"Ld v{op.addr}"
    if isinstance(op, ops.Fence):
        return f"Fence({op.role.value})"
    if isinstance(op, ops.Compute):
        return f"Compute({op.instructions})"
    return repr(op)


def store_load_sites(threads) -> List[Tuple[int, int]]:
    """``(thread, index)`` of every store→load site of fence-free
    *threads*: the first load after a store (or atomic RMW) that no
    earlier site covers.  A fence before each of them is the
    Shasha–Snir full fencing of the program."""
    sites = []
    for tid, body in enumerate(threads):
        pending_store = False
        for idx, op in enumerate(body):
            if isinstance(op, (ops.Store, ops.AtomicRMW)):
                pending_store = True
            elif isinstance(op, ops.Load) and pending_store:
                sites.append((tid, idx))
                pending_store = False
    return sites


def _roles(rng: random.Random, n: int) -> List[FenceRole]:
    """Role assignment with at most one CRITICAL thread."""
    roles = [FenceRole.STANDARD] * n
    critical = rng.randrange(n + 1)  # n = no critical thread at all
    if critical < n:
        roles[critical] = FenceRole.CRITICAL
    return roles


def sb_ring(roles, pads: int, name: str, seed: int = 0) -> LitmusProgram:
    """The ``sb`` shape, one thread per role: thread *i* stores *pads*
    cold pads (variables N, N+1, ..., thread-major), then variable *i*,
    fences, loads variable *i+1 mod N*."""
    n = len(roles)
    threads = []
    pad = n
    for i in range(n):
        body: List[object] = []
        for _ in range(pads):
            body.append(ops.Store(pad, 7))
            pad += 1
        body += [ops.Store(i, 1), ops.Fence(roles[i]), ops.Load((i + 1) % n)]
        threads.append(tuple(body))
    return LitmusProgram(name=name, shape="sb", num_vars=pad,
                         threads=tuple(threads), warm_vars=tuple(range(n)),
                         seed=seed)


def mp(roles=(_STD, _STD), name: str = "mp",
       seed: int = 0) -> LitmusProgram:
    """The ``mp`` shape: P0: data=42; F; flag=1.  P1: r=flag; F; r=data."""
    threads = (
        (ops.Store(0, 42), ops.Fence(roles[0]), ops.Store(1, 1)),
        (ops.Load(1), ops.Fence(roles[1]), ops.Load(0)),
    )
    return LitmusProgram(name=name, shape="mp", num_vars=2,
                         threads=threads, warm_vars=(0, 1), seed=seed)


def iriw(reader_roles=(_STD, _STD), name: str = "iriw",
         seed: int = 0) -> LitmusProgram:
    """The ``iriw`` shape; only the two readers fence."""
    threads = (
        (ops.Store(0, 1),),
        (ops.Store(1, 1),),
        (ops.Load(0), ops.Fence(reader_roles[0]), ops.Load(1)),
        (ops.Load(1), ops.Fence(reader_roles[1]), ops.Load(0)),
    )
    return LitmusProgram(name=name, shape="iriw", num_vars=2,
                         threads=threads, warm_vars=(0, 1), seed=seed)


def _sb(rng: random.Random, seed: int) -> LitmusProgram:
    n = rng.choice((2, 2, 3, 4))  # bias to the classic 2-thread shape
    pad_stores = rng.choice((0, 1, 2))
    roles = _roles(rng, n)
    return sb_ring(roles, pad_stores, f"sb{n}-p{pad_stores}-s{seed}", seed)


def _mp(rng: random.Random, seed: int) -> LitmusProgram:
    return mp(_roles(rng, 2), f"mp-s{seed}", seed)


def _iriw(rng: random.Random, seed: int) -> LitmusProgram:
    roles = _roles(rng, 4)  # drawn for all four threads; readers fence
    return iriw(roles[2:], f"iriw-s{seed}", seed)


def _random(rng: random.Random, seed: int) -> LitmusProgram:
    """Random accesses, fully fenced at every store→load boundary."""
    n = rng.choice((2, 3, 4))
    num_vars = rng.choice((2, 3, 4))
    roles = _roles(rng, n)
    threads: List[List[object]] = []
    for _ in range(n):
        body: List[object] = []
        for _ in range(rng.randrange(3, 8)):
            kind = rng.random()
            if kind < 0.45:
                body.append(ops.Store(rng.randrange(num_vars),
                                      rng.randrange(1, 100)))
            elif kind < 0.85:
                body.append(ops.Load(rng.randrange(num_vars)))
            else:
                body.append(ops.Compute(rng.choice((8, 40, 120))))
        threads.append(body)
    # full fencing: no load may bypass a buffered store
    for tid, idx in reversed(store_load_sites(threads)):
        threads[tid].insert(idx, ops.Fence(roles[tid]))
    return LitmusProgram(
        name=f"rand{n}v{num_vars}-s{seed}",
        shape="random",
        num_vars=num_vars,
        threads=tuple(map(tuple, threads)),
        warm_vars=tuple(range(num_vars)),
        seed=seed,
    )


_BUILDERS = {"sb": _sb, "mp": _mp, "iriw": _iriw, "random": _random}

#: shapes the generator can emit
SHAPES = tuple(_BUILDERS)


def generate_program(
    seed: int, shape: Optional[str] = None
) -> LitmusProgram:
    """One reproducible program; *shape* picks a builder (default: a
    seed-determined mix biased toward the racy ``sb`` shape)."""
    rng = random.Random(seed)
    if shape is None:
        shape = rng.choice(("sb", "sb", "mp", "iriw", "random", "random"))
    if shape not in _BUILDERS:
        raise ConfigError(
            f"unknown program shape {shape!r}; choose from "
            f"{', '.join(SHAPES)}"
        )
    return _BUILDERS[shape](rng, seed)
