"""Trace analytics: loader round trip, provenance contract, tables,
top-K queries, and the replay preconditions."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.params import FenceDesign
from repro.obs import Observability
from repro.obs.analyze import (
    AnalysisError,
    Table,
    TraceData,
    episode_latency_distribution,
    episode_table,
    load_jsonl,
    replay_attribution,
    top_lines,
    top_stores,
)
from repro.obs.export import (
    run_provenance,
    to_chrome_trace,
    write_jsonl,
)
from repro.workloads.base import load_all_workloads, run_workload


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    load_all_workloads()
    obs = Observability(attrib=True)
    run = run_workload("Tree", FenceDesign.WS_PLUS, num_cores=4,
                       scale=0.2, seed=12345, obs=obs, sanitize="off")
    path = str(tmp_path_factory.mktemp("trace") / "t.jsonl")
    write_jsonl(path, obs.tracer,
                label="Tree:WS+", provenance=run_provenance(run))
    return run, obs, path


# ---------------------------------------------------------------------------
# loader round trip
# ---------------------------------------------------------------------------


def test_jsonl_round_trip_is_bit_identical(traced):
    run, obs, path = traced
    data = load_jsonl(path)
    original = obs.tracer.events
    assert len(data.events) == len(original)
    for orig, loaded in zip(original, data.events):
        assert loaded.ph == orig.ph
        assert loaded.track == orig.track
        assert loaded.name == orig.name
        assert loaded.cat == orig.cat
        assert loaded.ts == orig.ts
        assert loaded.dur == orig.dur
        assert loaded.args == orig.args


def test_metrics_lines_of_older_exports_are_skipped(traced, tmp_path):
    """Exports from before the interval-metrics timeline was removed
    end in ``"type":"metrics"`` lines; they load as if absent, while any
    other unknown record type is still refused."""
    _, obs, path = traced
    with open(path) as fh:
        text = fh.read()
    old = tmp_path / "old.jsonl"
    old.write_text(text + '{"type":"metrics","ts":500,"wb_depth":[0,1]}\n')
    data, loaded = load_jsonl(path), load_jsonl(str(old))
    assert loaded.meta == data.meta
    assert [ev.to_dict() for ev in loaded.events] == \
        [ev.to_dict() for ev in data.events]
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text(text + '{"type":"samples"}\n')
    with pytest.raises(AnalysisError, match="unknown record type"):
        load_jsonl(str(bogus))


def test_float_charges_round_trip_exactly(traced):
    """mem/rmw stall charges are dyadic floats; JSON repr round-trip
    must preserve them bit-for-bit (the conservation proof leans on
    exact equality, not tolerance)."""
    _, obs, path = traced
    data = load_jsonl(path)
    orig = [ev.args["charge"] for ev in obs.tracer.events
            if ev.name in ("mem_stall", "rmw_stall") and ev.args]
    loaded = [ev.args["charge"] for ev in data.events
              if ev.name in ("mem_stall", "rmw_stall") and ev.args]
    assert orig and orig == loaded


def test_meta_header_carries_full_provenance(traced):
    run, _, path = traced
    prov = load_jsonl(path).provenance
    assert prov["workload"] == "Tree"
    assert prov["design"] == "WS+"
    assert prov["seed"] == 12345
    assert prov["cores"] == 4
    assert prov["scale"] == 0.2
    assert prov["kernel"] == "object"
    assert prov["sanitize"] == "off"
    assert prov["fault_scenario"] is None
    assert prov["degraded"] is False
    assert prov["degraded_reason"] is None


def test_chrome_other_data_carries_provenance(traced):
    run, obs, _ = traced
    trace = to_chrome_trace(obs.tracer, provenance=run_provenance(run))
    assert trace["otherData"]["provenance"]["design"] == "WS+"


def test_provenance_is_required(tmp_path):
    load_all_workloads()
    obs = Observability()
    run_workload("fib", FenceDesign.S_PLUS, num_cores=2, scale=0.1,
                 seed=1, obs=obs)
    path = str(tmp_path / "bare.jsonl")
    write_jsonl(path, obs.tracer)  # legacy export: no provenance
    data = load_jsonl(path)
    with pytest.raises(AnalysisError, match="provenance"):
        data.provenance
    with pytest.raises(AnalysisError, match="provenance"):
        replay_attribution(data)


def test_loader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "meta"}\nnot json\n')
    with pytest.raises(AnalysisError, match="bad JSON"):
        load_jsonl(str(bad))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(AnalysisError, match="no meta header"):
        load_jsonl(str(empty))


# The loader hands each stripped line to the decoder's C scanner itself;
# it must accept and reject exactly what ``json.loads(line.strip())`` does.

@pytest.fixture(scope="module")
def line_file(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "t.jsonl"


def _load_one(path, line):
    """``load_jsonl`` of a meta header plus *line*: the loaded data,
    ``"bad JSON"``, or ``"decoded"`` when the line parsed and the loader
    then refused the *value* (unknown type, not an object)."""
    path.write_text('{"type":"meta"}\n' + line + "\n")
    try:
        return load_jsonl(str(path))
    except AnalysisError as exc:
        assert f"{path}:2: " in str(exc)
        return "bad JSON" if "bad JSON" in str(exc) else "decoded"


def _json_loads_rejects(line):
    try:
        json.loads(line.strip())
    except ValueError:
        return True
    return False


#: one physical line each: the file reader splits at \n and \r only
_one_line = st.characters(blacklist_characters="\n\r",
                          blacklist_categories=("Cs",))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(_one_line, max_size=6)
    | st.floats(),  # NaN and the infinities included: json writes them
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(_one_line, max_size=4), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(line=st.text(_one_line, max_size=40))
@example(line="0")
@example(line="[]")
@example(line="[1,2]")
@example(line='{"type":"event","ph":"X"}')
@example(line="1 2")
@example(line="NaN")
@example(line="nan")
@example(line='{"type":"meta"} ,')
@example(line='\ufeff{"type":"meta"}')
@example(line='{"type":"meta"}\x0b')
@example(line='{"type":"meta","a":"\x0c"}')
def test_loader_rejects_exactly_what_json_loads_rejects(line_file, line):
    loaded = _load_one(line_file, line)
    assert (loaded == "bad JSON") == (
        bool(line.strip()) and _json_loads_rejects(line))


@settings(max_examples=200, deadline=None)
@given(payload=st.dictionaries(
           st.text(_one_line, max_size=4).filter(lambda k: k != "type"),
           _json_values, max_size=4),
       before=st.sampled_from(["", " ", "\t ", "\ufeff", "\x0b", "\u2028"]),
       after=st.sampled_from(["", "  ", "\t", "\x0c", " x", "}", ",", " {}",
                              "\u00a0"]),
       compact=st.booleans(), ascii_only=st.booleans())
def test_loader_returns_what_json_loads_returns(
        line_file, payload, before, after, compact, ascii_only):
    body = json.dumps({"type": "meta", **payload}, ensure_ascii=ascii_only,
                      separators=(",", ":") if compact else None)
    line = before + body + after
    loaded = _load_one(line_file, line)
    if _json_loads_rejects(line):
        assert loaded == "bad JSON"
    else:
        expected = json.loads(line.strip())
        # NaN != NaN: compare what the values serialise to
        assert json.dumps(loaded.meta) == json.dumps(expected)


# ---------------------------------------------------------------------------
# tables and analytics
# ---------------------------------------------------------------------------


def test_table_helpers():
    t = Table([{"a": 1, "b": "x"}, {"a": 3, "b": "y"}, {"a": 2, "b": "x"}])
    assert len(t.where(b="x")) == 2
    assert t.sum("a") == 6
    groups = t.groupby("b")
    assert sorted(groups) == ["x", "y"]
    assert len(groups["x"]) == 2
    assert t.percentile("a", 0) == 1
    assert t.percentile("a", 100) == 3
    assert t.percentile("a", 50) == 2
    assert Table([]).percentile("a", 50) is None
    assert t.top("a", 1).column("a") == [3]


def test_episode_table_and_latency_distribution(traced):
    _, obs, path = traced
    data = load_jsonl(path)
    table = episode_table(data)
    assert len(table.where(name="sf")) == len(data.spans("sf"))
    dist = episode_latency_distribution(data)
    assert "sf" in dist
    d = dist["sf"]
    assert d["count"] > 0
    assert d["p50"] <= d["p90"] <= d["p99"] <= d["max"]


def test_top_lines_and_top_stores(traced):
    _, _, path = traced
    data = load_jsonl(path)
    lines = top_lines(data, k=3)
    assert lines == sorted(lines, key=lambda r: -r["wait_cycles"])
    assert all(r["transactions"] > 0 for r in lines)
    stores = top_stores(data, k=5)
    assert stores == sorted(stores, key=lambda r: -r["dur"])
    # the Tree workload bounces under WS+, so chains exist
    assert stores and all(r["store_id"] for r in stores)


# ---------------------------------------------------------------------------
# replay preconditions
# ---------------------------------------------------------------------------


def _prov(cores=2):
    return {"design": "S+", "cores": cores}


def test_replay_requires_complete_trace():
    data = TraceData({"dropped": 7, "provenance": _prov()}, [])
    with pytest.raises(AnalysisError, match="dropped 7 events"):
        replay_attribution(data)


def test_replay_requires_core_summaries():
    data = TraceData({"dropped": 0, "provenance": _prov()}, [])
    with pytest.raises(AnalysisError, match="core_summary"):
        replay_attribution(data)


def test_replay_requires_design_and_cores():
    data = TraceData({"dropped": 0, "provenance": {"seed": 1}}, [])
    with pytest.raises(AnalysisError, match="design/cores"):
        replay_attribution(data)


def test_capped_trace_is_rejected(tmp_path):
    load_all_workloads()
    obs = Observability(max_events=50, attrib=True)
    run = run_workload("fib", FenceDesign.S_PLUS, num_cores=2, scale=0.1,
                       seed=1, obs=obs)
    assert obs.tracer.dropped > 0
    path = str(tmp_path / "capped.jsonl")
    write_jsonl(path, obs.tracer, provenance=run_provenance(run))
    with pytest.raises(AnalysisError, match="complete trace"):
        replay_attribution(load_jsonl(path))
