"""The shrinker: minimization, 1-minimality, budget discipline."""

from repro.common.params import FenceDesign
from repro.core import isa as ops
from repro.verify.generator import LitmusProgram, generate_program
from repro.verify.oracles import run_program
from repro.verify.shrink import shrink_program


def _noisy_program():
    """A 3-thread program whose SCV kernel is a padded 2-thread SB.

    The cold pad stores (v3/v4, never warmed) keep each write buffer
    draining long enough for both post-store loads to read stale
    values — the same trick the litmus kernels use."""
    t0 = (ops.Compute(40), ops.Store(3, 7), ops.Store(0, 1),
          ops.Load(1), ops.Compute(8))
    t1 = (ops.Store(4, 7), ops.Store(1, 1), ops.Load(0),
          ops.Compute(120))
    t2 = (ops.Load(2), ops.Compute(40), ops.Store(2, 5))  # bystander
    return LitmusProgram(
        name="noisy-sb", shape="sb", num_vars=5,
        threads=(t0, t1, t2), warm_vars=(0, 1, 2), seed=0,
    )


def _scv_property(design=FenceDesign.S_PLUS):
    def still_fails(candidate):
        return run_program(candidate, design).scv_found
    return still_fails


def test_shrinks_seeded_failure_to_small_kernel():
    """Acceptance: a seeded SCV failure shrinks to <= 10 ops."""
    prog = _noisy_program()
    still_fails = _scv_property()
    assert still_fails(prog)  # the seeded failure reproduces
    result = shrink_program(prog, still_fails)
    assert result.converged
    assert still_fails(result.program)
    assert result.program.op_count <= 10
    # the SB kernel (two stores, two loads) must survive
    kinds = [type(op).__name__
             for t in result.program.threads for op in t]
    assert kinds.count("Store") >= 2 and kinds.count("Load") >= 2


def test_shrink_drops_bystander_thread():
    result = shrink_program(_noisy_program(), _scv_property())
    assert result.program.num_threads == 2


def test_shrink_is_one_minimal():
    """Removing any single op from the shrunk program loses the SCV."""
    still_fails = _scv_property()
    result = shrink_program(_noisy_program(), still_fails)
    small = result.program
    for tid in range(small.num_threads):
        for i in range(len(small.threads[tid])):
            threads = [list(t) for t in small.threads]
            del threads[tid][i]
            assert not still_fails(small.with_threads(threads))


def test_shrink_respects_run_budget():
    calls = []

    def costly(candidate):
        calls.append(1)
        return True  # everything "fails": worst case churn

    result = shrink_program(_noisy_program(), costly, max_runs=5)
    assert len(calls) <= 5
    assert not result.converged


def test_generated_stripped_sb_shrinks():
    """End to end on generator output, as the engine does it."""
    prog = generate_program(12345 * 7919, shape="sb").stripped()
    still_fails = _scv_property()
    if not still_fails(prog):  # pragma: no cover - seed drift guard
        return
    result = shrink_program(prog, still_fails)
    assert result.program.op_count <= 10


# ----------------------------------------------------------------------
# generic ddmin: one shrinker, both predicate directions
# ----------------------------------------------------------------------
#
# The predicate signature is deliberately direction-agnostic.  The
# chaos harness shrinks a *failing* set ("this subset still breaks the
# machine"); the fence synthesizer shrinks a *passing* set ("this
# subset still satisfies the SC oracle").  Both directions get a
# regression test so neither caller ever needs a copied-and-flipped
# shrinker again.

from repro.verify.shrink import ddmin  # noqa: E402


def test_ddmin_failing_direction_chaos_style():
    """Chaos semantics: minimize injections while the crash persists
    (here: the 'crash' needs injections 3 and 7 together)."""
    def still_fails(subset):
        return 3 in subset and 7 in subset

    minimized, runs = ddmin(list(range(10)), predicate=still_fails)
    assert minimized == [3, 7]
    assert runs > 0


def test_ddmin_passing_direction_synth_style():
    """Synth semantics on the real simulator: shrink a passing fence
    set down to the sites that actually guard the SB race."""
    from repro.common.params import FenceDesign
    from repro.synth.programs import program_for_spec
    from repro.synth.search import PlacementOracle
    from repro.synth.sites import FenceSite, Placement
    from repro.common.params import FenceFlavour
    from repro.verify.oracles import RunStore
    from repro.verify.perturb import adversary_points

    stripped = program_for_spec("sb").stripped()
    racy = (FenceSite(0, 2), FenceSite(1, 2))
    useless = (FenceSite(0, 3), FenceSite(1, 3))  # after the loads
    oracle = PlacementOracle(
        stripped, RunStore(), FenceDesign.S_PLUS,
        tuple(adversary_points(1, 6)))

    def still_passes(subset):
        placement = Placement.of(
            {site: FenceFlavour.SF for site in subset})
        return oracle.check(placement) is None

    assert still_passes(list(racy + useless))
    minimized, _runs = ddmin(list(racy + useless),
                             predicate=still_passes)
    assert sorted(minimized) == sorted(racy)


def test_ddmin_collapses_to_empty_when_predicate_allows():
    """The final singleton check: a set whose property needs no items
    at all shrinks to []."""
    minimized, _runs = ddmin([1, 2, 3], predicate=lambda s: True)
    assert minimized == []


def test_ddmin_budget_stops_early():
    calls = []

    def predicate(subset):
        calls.append(1)
        return 0 in subset

    minimized, runs = ddmin(list(range(16)), predicate=predicate,
                            max_runs=3)
    assert runs <= 3 and len(calls) <= 3
    assert 0 in minimized  # never returns a subset violating the predicate
