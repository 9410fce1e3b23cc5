"""The sanitizer's zero-perturbation contract.

Mirrors ``tests/obs/test_trace_consistency.py``: attaching the
sanitizer (any mode) must leave the simulation **bit-identical** — the
checks are read-only (peeking cache lookups, no directory-entry
creation) and the periodic sweep is stopped before the quiesce drain, so
``stats.to_dict()`` and the final cycle count cannot move.  This is
what lets CI run the whole tier-1 suite under ``REPRO_SANITIZE=strict``
against the same goldens.
"""

import pytest

from repro.common.params import FenceDesign
from repro.workloads.base import load_all_workloads, run_workload

DESIGNS = (
    FenceDesign.S_PLUS,
    FenceDesign.WS_PLUS,
    FenceDesign.SW_PLUS,
    FenceDesign.W_PLUS,
    FenceDesign.WEE,
)


def _run(design, **kw):
    load_all_workloads()
    return run_workload("fib", design, num_cores=4, scale=0.2,
                        seed=12345, **kw)


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: str(d))
def test_strict_sanitizer_does_not_perturb_the_simulation(design):
    plain = _run(design)
    sanitized = _run(design, sanitize="strict")
    assert sanitized.stats.to_dict() == plain.stats.to_dict()
    assert sanitized.cycles == plain.cycles
    assert sanitized.result.completed
    assert sanitized.result.sanitizer_violations == 0


def test_warn_mode_is_equally_invisible():
    plain = _run(FenceDesign.SW_PLUS)
    warned = _run(FenceDesign.SW_PLUS, sanitize="warn")
    assert warned.stats.to_dict() == plain.stats.to_dict()
    assert warned.cycles == plain.cycles


def test_sanitizer_env_does_not_change_the_goldens(monkeypatch):
    """The CI job sets ``REPRO_SANITIZE=strict`` globally; ``run_matrix``
    resolves it into every job, and that path must be exactly as
    invisible as the explicit argument."""
    from repro.eval.runner import run_matrix

    def rows():
        return run_matrix(["fib"], [FenceDesign.WEE, FenceDesign.W_PLUS],
                          num_cores=4, scale=0.2, farm_workers=0)

    monkeypatch.delenv("REPRO_FARM_DB", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = rows()
    monkeypatch.setenv("REPRO_SANITIZE", "strict")
    assert rows() == plain
