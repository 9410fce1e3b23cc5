"""Exporter tests: Chrome trace_event JSON, JSONL, and the validator."""

import json

import pytest

from repro.common.params import FenceDesign
from repro.obs import Observability
from repro.obs.export import (
    run_provenance,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.sanitizer.core import sanitize_mode
from repro.workloads.base import load_all_workloads, run_workload


@pytest.fixture(scope="module")
def traced():
    load_all_workloads()
    obs = Observability()
    run = run_workload("fib", FenceDesign.W_PLUS, num_cores=4, scale=0.2,
                       seed=12345, obs=obs, sanitize=sanitize_mode())
    return run, obs


def test_chrome_trace_is_schema_valid(traced):
    run, obs = traced
    trace = to_chrome_trace(obs.tracer, label="fib:W+")
    assert validate_chrome_trace(trace) == []


def test_chrome_trace_has_named_tracks_per_core(traced):
    _, obs = traced
    trace = to_chrome_trace(obs.tracer)
    names = {ev["args"]["name"] for ev in trace["traceEvents"]
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    for core in range(4):
        assert f"core {core}" in names
    assert any(n.startswith("dir") for n in names)
    assert "noc" in names


def test_chrome_trace_spans_carry_duration_and_cycle_clock(traced):
    _, obs = traced
    trace = to_chrome_trace(obs.tracer)
    spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
    assert spans and all(ev["dur"] >= 0 for ev in spans)
    assert trace["otherData"]["clock"] == "1 simulated cycle = 1us"


def test_write_chrome_trace_round_trips(tmp_path, traced):
    """The streamed file is byte for byte ``json.dump`` of the dict
    ``to_chrome_trace`` builds, and the writer returns its event count."""
    run, obs = traced
    path = tmp_path / "trace.json"
    provenance = run_provenance(run)
    n = write_chrome_trace(str(path), obs.tracer, label="x",
                           provenance=provenance)
    expected = to_chrome_trace(obs.tracer, label="x", provenance=provenance)
    assert path.read_text() == json.dumps(
        expected, separators=(",", ":")) + "\n"
    trace = json.loads(path.read_text())
    assert validate_chrome_trace(trace) == []
    assert trace["otherData"]["label"] == "x"
    assert n == len(trace["traceEvents"]) > len(obs.tracer.records)


def test_write_jsonl_stream(tmp_path, traced):
    _, obs = traced
    path = tmp_path / "trace.jsonl"
    n = write_jsonl(str(path), obs.tracer, label="fib:W+")
    lines = path.read_text().splitlines()
    assert len(lines) == n
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "meta"
    assert records[0]["events"] == len(obs.tracer.events)
    kinds = {r["type"] for r in records}
    assert kinds == {"meta", "event"}


def test_write_jsonl_bytes_equal_per_record_dumps(tmp_path):
    """One encoder per file, one write — the file is byte for byte what
    a ``json.dumps(rec, separators=(",", ":"))`` per record wrote."""
    load_all_workloads()
    obs = Observability()
    run = run_workload("TreeOverwrite", FenceDesign.WS_PLUS, num_cores=4,
                       scale=0.06, seed=7, obs=obs, sanitize=sanitize_mode())
    provenance = run_provenance(run)
    path = tmp_path / "trace.jsonl"
    n = write_jsonl(str(path), obs.tracer,
                    label="TreeOverwrite:WS+", provenance=provenance)

    def dumps(rec):
        return json.dumps(rec, separators=(",", ":")) + "\n"

    reference = [dumps({
        "type": "meta", "exporter": "repro.obs",
        "events": len(obs.tracer.events), "dropped": obs.tracer.dropped,
        "label": "TreeOverwrite:WS+", "provenance": provenance,
    })]
    for ev in obs.tracer.events:
        rec = {"type": "event"}
        rec.update(ev.to_dict())
        reference.append(dumps(rec))
    assert n == len(reference) > 1000
    assert path.read_bytes() == "".join(reference).encode()


# ---------------------------------------------------------------------------
# validator negatives: it must actually catch malformed traces
# ---------------------------------------------------------------------------


def _valid_minimal():
    return {
        "traceEvents": [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0, "ts": 0,
             "args": {"name": "core 0"}},
            {"ph": "X", "name": "wf", "cat": "fence", "pid": 1, "tid": 0,
             "ts": 0, "dur": 5},
        ],
        "displayTimeUnit": "ms",
        "otherData": {},
    }


def test_validator_accepts_minimal_trace():
    assert validate_chrome_trace(_valid_minimal()) == []


def test_validator_rejects_non_dict():
    assert validate_chrome_trace([]) != []


def test_validator_rejects_missing_dur_on_span():
    trace = _valid_minimal()
    del trace["traceEvents"][1]["dur"]
    assert any("dur" in e for e in validate_chrome_trace(trace))


def test_validator_rejects_unknown_phase():
    trace = _valid_minimal()
    trace["traceEvents"][1]["ph"] = "Z"
    assert any("ph" in e for e in validate_chrome_trace(trace))


def test_validator_rejects_unnamed_track():
    trace = _valid_minimal()
    trace["traceEvents"][1]["tid"] = 42   # no thread_name metadata
    assert any("thread_name" in e for e in validate_chrome_trace(trace))


def test_validator_rejects_non_numeric_counter():
    trace = _valid_minimal()
    trace["traceEvents"].append(
        {"ph": "C", "name": "depth", "pid": 1, "tid": 0, "ts": 0,
         "args": {"v": "not-a-number"}},
    )
    assert any("counter" in e for e in validate_chrome_trace(trace))
