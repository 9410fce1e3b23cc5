"""Property-based conservation of the cycle-attribution tree.

Random small multithreaded programs under every paper design.
Whatever the schedule does — bounces, promotions, W+ recoveries, Wee
demotions, cycle-budget cutoffs — the attribution leaves must sum
*exactly* to the coarse breakdown, and attaching the profiler must not
perturb the simulated machine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import FenceDesign, FenceRole
from repro.core import isa as ops
from repro.obs import CycleAttribution
from repro.obs.attrib import conservation_errors
from repro.sim.machine import Machine

from tests.support import tiny_params

NUM_WORDS = 4
PAPER_DESIGNS = (
    FenceDesign.S_PLUS,
    FenceDesign.WS_PLUS,
    FenceDesign.SW_PLUS,
    FenceDesign.W_PLUS,
    FenceDesign.WEE,
)
designs = st.sampled_from(PAPER_DESIGNS)

op_strategy = st.one_of(
    st.tuples(st.just("load"), st.integers(0, NUM_WORDS - 1)),
    st.tuples(st.just("store"), st.integers(0, NUM_WORDS - 1),
              st.integers(1, 99)),
    st.tuples(st.just("fence")),
    st.tuples(st.just("rmw"), st.integers(0, NUM_WORDS - 1)),
    st.tuples(st.just("compute"), st.integers(1, 60)),
)
thread_programs = st.lists(op_strategy, min_size=1, max_size=12)


def build_thread(program, words, role):
    def fn(ctx):
        for op in program:
            if op[0] == "load":
                yield ops.Load(words[op[1]])
            elif op[0] == "store":
                yield ops.Store(words[op[1]], op[2])
            elif op[0] == "fence":
                yield ops.Fence(role)
            elif op[0] == "rmw":
                yield ops.AtomicRMW(words[op[1]], "add", 1)
            else:
                yield ops.Compute(op[1])
    return fn


def _run(design, p0, p1, seed, max_cycles=2_000_000):
    m = Machine(tiny_params(design, num_cores=2), seed=seed)
    attrib = CycleAttribution()
    m.attach_attrib(attrib)
    words = [m.alloc.word() for _ in range(NUM_WORDS)]
    m.spawn(build_thread(p0, words, FenceRole.CRITICAL))
    m.spawn(build_thread(p1, words, FenceRole.STANDARD))
    result = m.run(max_cycles=max_cycles)
    return m, attrib, result


@given(designs, thread_programs, thread_programs, st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_random_runs_conserve_cycles(design, p0, p1, seed):
    m, attrib, result = _run(design, p0, p1, seed)
    assert result.completed
    assert conservation_errors(attrib.tree()) == []


@given(designs, thread_programs, thread_programs, st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_profiling_never_perturbs_random_runs(design, p0, p1, seed):
    m_prof, _, result_prof = _run(design, p0, p1, seed)
    m_plain = Machine(tiny_params(design, num_cores=2), seed=seed)
    words = [m_plain.alloc.word() for _ in range(NUM_WORDS)]
    m_plain.spawn(build_thread(p0, words, FenceRole.CRITICAL))
    m_plain.spawn(build_thread(p1, words, FenceRole.STANDARD))
    result_plain = m_plain.run(max_cycles=2_000_000)
    assert result_prof.cycles == result_plain.cycles
    assert m_prof.stats.to_dict() == m_plain.stats.to_dict()


@given(designs, thread_programs, thread_programs, st.integers(0, 5),
       st.integers(100, 1500))
@settings(max_examples=30, deadline=None)
def test_cutoff_runs_still_conserve(design, p0, p1, seed, budget):
    """Conservation may not depend on the run completing: a cycle cap
    can land mid-fence, mid-chain, or mid-recovery."""
    _, attrib, _ = _run(design, p0, p1, seed, max_cycles=budget)
    assert conservation_errors(attrib.tree()) == []
