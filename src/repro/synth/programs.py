"""The named litmus programs and the ``--program`` spec parser.

The named programs are the paper's figure kernels as fixed
(seed-independent) :class:`LitmusProgram` s carrying their textbook
fence annotations: ``repro litmus`` runs them, the synthesizer strips
them and searches the annotated sites.  ``sb3``, ``mp`` and ``iriw``
are the verify generator's shape builders with fixed roles; ``sb``
(the 2-thread golden kernel) and ``sharing`` are built here.  The
builders take the fence roles (and pads) as arguments; their defaults
are the named programs.  ``mp`` and ``iriw`` need no fence on this TSO,
single-memory-image machine: their synthesized placement is empty.
Beyond the named set, ``shape:SEED`` (e.g. ``random:7``) draws a
program from the verify generator — the random-program battery and
the Hypothesis property tests use this.

``sb`` deliberately gives each thread one *cold private pad store*
before the racy store: the pad stretches the write-buffer drain so the
fence episode is long enough for wf machinery (BS bounces, Order
promotion, W+ collisions) to matter, and — combined with the jitter-
armed adversary points — makes the single-fence placements fail
observably, so the synthesized minimum is the textbook one.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import ConfigError
from repro.common.params import FenceRole
from repro.core import isa as ops
from repro.verify.generator import (
    SHAPES,
    LitmusProgram,
    generate_program,
    iriw,
    mp,
    sb_ring,
)

_STD = FenceRole.STANDARD
_CRIT = FenceRole.CRITICAL

#: the cold pad store's value per thread (the value never matters: a
#: pad is private and never read)
_PAD_VALUES = (7, 9)


def sb(roles: Tuple[FenceRole, FenceRole] = (_STD, _STD),
       pads: int = 1) -> LitmusProgram:
    """2-thread store buffering, Dekker (Fig. 1d): P0: x=1; F; r=y.
    P1: y=1; F; r=x.  SC forbids both loads reading 0.

    Each thread first stores *pads* cold private pads (v2, v3, ...,
    interleaved between the threads): they keep each fence incomplete
    long enough for the two fences to collide in a group.
    """
    threads = tuple(
        tuple(ops.Store(2 + 2 * p + me, _PAD_VALUES[me])
              for p in range(pads))
        + (ops.Store(me, 1), ops.Fence(roles[me]), ops.Load(1 - me))
        for me in range(2)
    )
    return LitmusProgram(name="sb", shape="sb", num_vars=2 + 2 * pads,
                         threads=threads, warm_vars=(0, 1), seed=0)


def sb3(roles=(_STD,) * 3) -> LitmusProgram:
    """3-thread store-buffering ring, one cold pad per thread (Fig.
    1e/1f).  SC forbids all three loads reading 0."""
    return sb_ring(roles, 1, "sb3")


def sharing(true_sharing: bool) -> LitmusProgram:
    """Two *unrelated* wfs that interfere through one cache line
    (Figs. 4b/4c).  v0/v1 share line X, v2/v3 share line Y, v4 is
    unrelated; v5/v6 are the cold pads.

    P0: X.w0=1; wf; r=Y.w0.  Fig. 4b (false sharing): P1: Y.w1=1; wf;
    r=X.w1 — a "cycle" only through different words of the same lines.
    Fig. 4c (true sharing): P1: Y.w0=1; wf; r=v4 — a one-directional
    dependence.  Neither can produce an SCV: interference is not a
    cycle.
    """
    if true_sharing:
        tail = (ops.Store(2, 1), ops.Fence(_CRIT), ops.Load(4))
    else:
        tail = (ops.Store(3, 1), ops.Fence(_CRIT), ops.Load(1))
    threads = (
        (ops.Store(5, _PAD_VALUES[0]), ops.Store(0, 1), ops.Fence(_CRIT),
         ops.Load(2)),
        (ops.Store(6, _PAD_VALUES[1]),) + tail,
    )
    return LitmusProgram(
        name="true-sharing" if true_sharing else "false-sharing",
        shape="interference", num_vars=7, threads=threads,
        warm_vars=(0, 2, 4), seed=0, line_groups=(2, 2))


_BUILDERS = {
    "sb": sb,
    "sb3": sb3,
    "mp": mp,
    "iriw": iriw,
    "false-sharing": lambda: sharing(true_sharing=False),
    "true-sharing": lambda: sharing(true_sharing=True),
}

#: names accepted by ``repro synth --program`` and ``repro litmus``
#: (plus ``shape:SEED``)
NAMED_PROGRAMS = tuple(_BUILDERS)


def program_for_spec(spec: str, seed: int = 1) -> LitmusProgram:
    """Resolve a ``--program`` spec to an (annotated) litmus program.

    Named canonical programs ignore *seed*; ``shape:SEED`` draws from
    the verify generator (``shape:`` alone uses *seed*).
    """
    spec = spec.strip()
    if spec in _BUILDERS:
        return _BUILDERS[spec]()
    if ":" in spec:
        shape, _, tail = spec.partition(":")
        gen_seed = int(tail) if tail.strip() else seed
        return generate_program(gen_seed, shape=shape.strip())
    raise ConfigError(
        f"unknown program {spec!r}; choose from "
        f"{', '.join(NAMED_PROGRAMS)} or 'shape:SEED' with shape in "
        f"{', '.join(SHAPES)}"
    )
