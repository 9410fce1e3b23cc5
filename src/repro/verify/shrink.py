"""Delta-debugging minimization: shrink a set while a property holds.

One minimizer, :func:`ddmin` — classic complement-removal ddmin over
an arbitrary item list under a caller-supplied predicate — with three
callers.  The predicate's direction is the caller's business:

* the chaos harness shrinks a *failing* run's fired decision map
  ("these injections still break the machine");
* the fence synthesizer's descent shrinks a *passing* fence placement
  ("this subset still satisfies the SC oracle");
* :func:`shrink_program` shrinks a *violating* litmus program's op
  positions ("this program still reproduces the SCV") for
  ``repro verify``.

ddmin ends 1-minimal when it finishes inside its run budget: removing
any single remaining item loses the property.  Deterministic by
construction: the property re-runs the simulator at the same schedule
point, and the simulator is deterministic for a fixed (params, seed).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, Tuple

from repro.verify.generator import LitmusProgram


def ddmin(
    items: Sequence,
    predicate: Callable[[list], bool],
    max_runs: int = 200,
) -> Tuple[list, int]:
    """Classic ddmin over an arbitrary item list.

    Minimize *items* (order-preserving) such that ``predicate(subset)``
    still holds, by complement removal with progressively finer
    granularity.  Returns ``(minimized, runs)``.

    The predicate is whatever property the caller wants preserved
    while shrinking (see the module docstring for the three callers);
    it must hold for *items* itself (caller-verified).
    """
    current = list(items)
    runs = 0
    n = 2
    while len(current) >= 2 and runs < max_runs:
        chunk = max(1, len(current) // n)
        reduced = False
        for start in range(0, len(current), chunk):
            if runs >= max_runs:
                break
            complement = current[:start] + current[start + chunk:]
            if not complement:
                continue
            runs += 1
            if predicate(complement):
                current = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    # final singleton check: can the whole set collapse to nothing?
    if len(current) == 1 and runs < max_runs:
        runs += 1
        if predicate([]):
            current = []
    return current, runs


class ShrinkResult(NamedTuple):
    """Outcome of one program shrink."""

    program: LitmusProgram
    #: property evaluations spent
    runs_used: int
    #: the shrink finished inside its run budget
    converged: bool


def shrink_program(
    program: LitmusProgram,
    still_fails: Callable[[LitmusProgram], bool],
    max_runs: int = 400,
) -> ShrinkResult:
    """Minimize *program* while ``still_fails(candidate)`` holds.

    :func:`ddmin` over the program's ``(thread, index)`` op positions:
    a candidate keeps the chosen ops in order and drops every thread
    left empty.  *still_fails* must be True for *program* itself (the
    caller verified the violation); *max_runs* bounds the number of
    property evaluations so a flaky property cannot loop forever.
    """
    def keep(positions) -> LitmusProgram:
        kept = set(positions)
        threads = (
            [op for i, op in enumerate(body) if (tid, i) in kept]
            for tid, body in enumerate(program.threads)
        )
        return program.with_threads(t for t in threads if t)

    positions = [(tid, i) for tid, body in enumerate(program.threads)
                 for i in range(len(body))]
    kept, runs = ddmin(positions, lambda p: still_fails(keep(p)),
                       max_runs=max_runs)
    return ShrinkResult(keep(kept), runs, runs < max_runs)
