"""Cross-design litmus conformance matrix.

One table-driven test over shapes × designs × {fences on, fences
stripped}: the SC-forbidden outcome of each shape may appear **only**
when the fences are stripped.  This is the lockdown for the simulation
kernel: whatever changes in the Python hot path, the simulated
machines must keep admitting exactly the TSO-level reorderings and
nothing else.

Ground truth per shape:

* **SB** (store buffering, Dekker): ``r0 == r1 == 0`` is forbidden
  under SC.  TSO's store→load reordering produces it without fences;
  every design's fence group must prevent it.
* **MP** (message passing): data read as stale after the flag is
  observed set.  TSO keeps store→store and load→load order, so MP is
  safe *even without fences* — the expectation is "never", both ways.
* **IRIW**: the two readers observing the two independent writes in
  opposite orders.  TSO is multi-copy atomic; forbidden both ways.

Fence roles are the asymmetric (CRITICAL, STANDARD) recipe — the
paper's placement; an all-wf SB group is a deadlock under SW+ and is
covered separately by the W+ recovery tests.  The MP consumer waits
before it reads, so every run observes the flag set and the data
check is never vacuous.
"""

import pytest

from repro.common.params import FenceDesign, FenceRole
from repro.synth.programs import sb

from tests.fences.test_iriw import iriw_machine, run_iriw
from tests.support import delayed_mp, loads_of, outcome, run_litmus

ALL_DESIGNS = tuple(FenceDesign)
ASYM = (FenceRole.CRITICAL, FenceRole.STANDARD)


def _fenced(program, fences):
    return program if fences else program.stripped()


def _sb_run(design, fences):
    return run_litmus(_fenced(sb(ASYM), fences), design)


def _sb_forbidden(design, fences):
    run = _sb_run(design, fences)
    return outcome(run) == (0, 0), run.scv


def _mp_run(design, fences):
    return run_litmus(_fenced(delayed_mp(), fences), design)


def _mp_forbidden(design, fences):
    flag, data = loads_of(_mp_run(design, fences), 1)
    assert flag == 1, "the consumer read before the flag was published"
    # the consumer saw flag == 1, so data must be the published value
    return data != 42, None


def _iriw_forbidden(design, fences):
    r0, r1 = run_iriw(design, fences=fences, seed=3, stagger=23)
    return (r0 == (1, 0) and r1 == (1, 0)), None


#: shape -> (runner, forbidden outcome reachable with fences stripped?)
SHAPES = {
    "sb": (_sb_forbidden, True),
    "mp": (_mp_forbidden, False),
    "iriw": (_iriw_forbidden, False),
}

MATRIX = [
    (shape, design, fences)
    for shape in SHAPES
    for design in ALL_DESIGNS
    for fences in (True, False)
]


def case_events(shape, design, fences):
    """The recorded access history of one matrix case's run (what the
    SCV checker's differential test in tests/unit feeds both checkers)."""
    if shape == "sb":
        return _sb_run(design, fences).events
    if shape == "mp":
        return _mp_run(design, fences).events
    _m, result = iriw_machine(design, fences=fences, seed=3, stagger=23,
                              track_dependences=True)
    return result.events


@pytest.mark.parametrize("shape,design,fences", MATRIX)
def test_conformance(shape, design, fences):
    runner, stripped_reaches_forbidden = SHAPES[shape]
    forbidden, scv = runner(design, fences)
    if fences:
        assert not forbidden, (
            f"{shape} under {design.value} with fences on reached the "
            "SC-forbidden outcome"
        )
        if scv is not None:
            pytest.fail(
                f"{shape} under {design.value} with fences on has an "
                f"SCV cycle: {scv}"
            )
    elif stripped_reaches_forbidden:
        # the pinned timing makes the race deterministic: stripping the
        # fences must actually reproduce the forbidden outcome (else
        # the fenced assertion above proves nothing)
        assert forbidden, (
            f"{shape} under {design.value} with fences stripped did "
            "not reach the forbidden outcome the fence is there to "
            "prevent"
        )
        assert scv is not None
    else:
        # MP/IRIW: TSO alone forbids the outcome, fences or not
        assert not forbidden, (
            f"{shape} under {design.value} must hold under bare TSO"
        )
