"""The ``repro profile`` CLI: report schema, renderers, exit codes."""

import json

import pytest

from repro import cli
from repro.common.params import FenceDesign
from repro.obs.profile import (
    PROFILE_SCHEMA,
    build_report,
    collapsed_stacks,
    profile_run,
    render_diff_text,
    render_text,
    report_from_trace,
)


@pytest.fixture(scope="module")
def run_report():
    return profile_run("fib", FenceDesign.W_PLUS, num_cores=4, scale=0.2,
                       seed=12345)


def test_profile_run_report_schema(run_report):
    report = run_report
    assert report["schema"] == PROFILE_SCHEMA
    assert report["source"] == "run"
    assert report["conservation"]["ok"]
    assert report["conservation"]["errors"] == []
    prov = report["provenance"]
    assert prov["workload"] == "fib" and prov["design"] == "W+"
    tree = report["tree"]
    assert tree["num_cores"] == 4 and len(tree["cores"]) == 4
    assert report["hot_lines"], "hot-line metadata missing"
    assert len(report["wb_peak"]) == 4


def test_render_text(run_report):
    text = render_text(run_report)
    assert "profile: fib:W+" in text
    assert "conservation: OK" in text
    assert "per-core" in text


def test_collapsed_stacks_format(run_report):
    lines = collapsed_stacks(run_report["tree"])
    assert lines
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert int(count) > 0
        parts = stack.split(";")
        assert parts[0].startswith("core")
        assert not any(p == "total" for p in parts)
    # busy must be present for every core that did work
    assert any(line.startswith("core0;busy ") for line in lines)


def test_failed_conservation_is_reported():
    tree = profile_run("fib", FenceDesign.S_PLUS, num_cores=2,
                       scale=0.1, seed=1)["tree"]
    tree["cores"][0]["fence_stall"]["total"] += 1.0  # corrupt it
    report = build_report(tree, "run")
    assert not report["conservation"]["ok"]
    assert "FAILED" in render_text(report)


def test_from_trace_report_includes_analytics(tmp_path):
    from repro.obs import Observability
    from repro.obs.export import run_provenance, write_jsonl
    from repro.workloads.base import load_all_workloads, run_workload

    load_all_workloads()
    obs = Observability(attrib=True)
    run = run_workload("fib", FenceDesign.S_PLUS, num_cores=4, scale=0.2,
                       seed=12345, obs=obs)
    path = str(tmp_path / "t.jsonl")
    write_jsonl(path, obs.tracer, provenance=run_provenance(run))
    report = report_from_trace(path)
    assert report["source"] == "trace"
    assert report["conservation"]["ok"]
    assert "episodes" in report["analytics"]
    # the replayed tree equals the online tree of the same run
    assert report["tree"] == obs.attrib.tree(
        label=report["tree"]["label"])


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


ARGS = ["--cores", "2", "--scale", "0.1", "--seed", "1"]


def test_cli_run_json(tmp_path, capsys):
    out = str(tmp_path / "p.json")
    rc = cli.main(["profile", "run", "fib", "--design", "wplus",
                   "--format", "json", "--out", out] + ARGS)
    assert rc == 0
    with open(out) as fh:
        report = json.load(fh)
    assert report["schema"] == PROFILE_SCHEMA
    assert report["conservation"]["ok"]


def test_cli_run_collapsed(capsys):
    rc = cli.main(["profile", "run", "fib", "--format", "collapsed"] + ARGS)
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in out)


def test_cli_diff_designs(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    rc = cli.main(["profile", "diff", "splus", "wplus",
                   "--format", "json", "--out", out] + ARGS)
    assert rc == 0
    with open(out) as fh:
        diff = json.load(fh)
    assert diff["schema"] == "repro.attrib.diff/1"
    assert diff["base"]["design"] == "S+"
    assert diff["other"]["design"] == "W+"
    assert diff["rows"]


def test_cli_diff_accepts_report_files(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert cli.main(["profile", "run", "fib", "--design", "splus",
                     "--format", "json", "--out", a] + ARGS) == 0
    assert cli.main(["profile", "run", "fib", "--design", "wee",
                     "--format", "json", "--out", b] + ARGS) == 0
    rc = cli.main(["profile", "diff", a, b] + ARGS)
    assert rc == 0
    assert "attribution diff" in capsys.readouterr().out


def test_cli_from_trace(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    rc = cli.main(["run", "fib", "--design", "splus", "--cores", "2",
                   "--scale", "0.1", "--seed", "1", "--trace-out", trace,
                   "--trace-format", "jsonl"])
    assert rc == 0
    rc = cli.main(["profile", "from-trace", trace])
    assert rc == 0
    assert "conservation: OK" in capsys.readouterr().out


def test_cli_rejects_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "meta"}\n')  # no provenance
    rc = cli.main(["profile", "from-trace", str(bad)])
    assert rc == 2
    assert "provenance" in capsys.readouterr().err


def test_render_diff_text_names_components(run_report):
    from repro.obs.attrib import diff_trees

    base = profile_run("fib", FenceDesign.S_PLUS, num_cores=4, scale=0.2,
                       seed=12345)
    diff = diff_trees(base["tree"], run_report["tree"])
    text = render_diff_text(diff)
    assert "fence_stall.sf." in text
