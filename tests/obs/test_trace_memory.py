"""The trace path in bounded memory, measured with ``tracemalloc``.

* Both exporters stream: what ``write_jsonl`` and ``write_chrome_trace``
  allocate at their peak is a small share of the bytes they write, not
  a copy of the file.
* ``load_jsonl`` keeps what the tracer keeps: the flat records of a
  loaded trace take at most 3x the live memory the tracer's own hooks
  allocated for the same records (a loaded trace shares no ints and no
  enum strings, so it cannot match it exactly).

Both bounds are ratios over the same run, so they hold whatever the
interpreter's object sizes.
"""

import os
import tracemalloc

import pytest

from repro.common.params import FenceDesign
from repro.obs import Observability, tracer as tracer_module
from repro.obs.analyze import load_jsonl
from repro.obs.export import run_provenance, write_chrome_trace, write_jsonl
from repro.workloads.base import load_all_workloads, run_workload


@pytest.fixture(scope="module")
def traced():
    """A traced Counter run and the live bytes its tracer allocated."""
    load_all_workloads()
    obs = Observability()
    tracemalloc.start()
    try:
        run = run_workload("Counter", FenceDesign.WS_PLUS, num_cores=4,
                           scale=0.4, seed=3, obs=obs, sanitize="off")
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    own = sum(stat.size for stat in snapshot.filter_traces(
        [tracemalloc.Filter(True, tracer_module.__file__)]
    ).statistics("filename"))
    assert len(obs.tracer.records) > 10_000 and own > 0
    return run, obs.tracer, own


@pytest.mark.parametrize("write", [write_jsonl, write_chrome_trace])
def test_exporters_stream(tmp_path, traced, write):
    run, tracer, _ = traced
    path = str(tmp_path / "trace")
    tracemalloc.start()
    try:
        write(path, tracer, label="Counter:WS+",
              provenance=run_provenance(run))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = os.path.getsize(path)
    assert peak < 0.10 * written, (peak, written)


def test_a_loaded_trace_keeps_the_tracers_records(tmp_path, traced):
    run, tracer, own = traced
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(path, tracer, provenance=run_provenance(run))
    tracemalloc.start()
    try:
        data = load_jsonl(path)
        loaded, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data.records) == len(tracer.records)
    assert loaded <= 3 * own, (loaded, own)
