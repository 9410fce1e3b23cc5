"""The evaluation harness: runner, figure/table generators, rendering.

Uses tiny app subsets so these stay fast; the full regenerations live
in benchmarks/.
"""

import pytest

from repro.common.params import FenceDesign
from repro.eval import figures, report, tables
from repro.eval.runner import RunSummary, run_matrix


@pytest.fixture(autouse=True)
def _inline_farm(monkeypatch):
    monkeypatch.setenv("REPRO_FARM_WORKERS", "0")
    monkeypatch.delenv("REPRO_FARM_DB", raising=False)


def test_run_matrix_grid_keys():
    runs = run_matrix(["fib"], [FenceDesign.S_PLUS, FenceDesign.W_PLUS],
                      num_cores=2, scale=0.06)
    assert set(runs) == {("fib", "S+", 2), ("fib", "W+", 2)}
    for r in runs.values():
        assert isinstance(r, RunSummary)
        assert r.cycles > 0 and r.total > 0
        assert r.stats["instructions"] > 0


def test_run_matrix_parallel_matches_serial():
    serial = run_matrix(["fib"], [FenceDesign.S_PLUS], num_cores=2,
                        scale=0.06, farm_workers=0)
    parallel = run_matrix(["fib"], [FenceDesign.S_PLUS], num_cores=2,
                          scale=0.06, farm_workers=2)
    a = serial[("fib", "S+", 2)]
    b = parallel[("fib", "S+", 2)]
    assert a.cycles == b.cycles  # deterministic across process modes


def test_fig8_structure_small():
    data = figures.fig8_cilkapps(scale=0.06, num_cores=2,
                                 apps=("fib",))
    assert data["apps"] == ["fib"]
    assert len(data["entries"]) == 4  # one per design
    for e in data["entries"]:
        total = e["busy"] + e["fence_stall"] + e["other_stall"]
        assert abs(total - e["normalized_time"]) < 1e-6
    text = figures.render_time_figure(data, "Figure 8", "note")
    assert "fib" in text and "S+" in text


def test_fig9_structure_small():
    data = figures.fig9_fig10_ustm(scale=0.1, num_cores=2,
                                   apps=("Counter",))
    ratios = data["avg_throughput_ratio"]
    assert ratios["S+"] == pytest.approx(1.0)
    assert figures.render_fig9(data).startswith("Figure 9")
    assert "Figure 10" in figures.render_fig10(data)


def test_fig12_structure_small():
    data = figures.fig12_scalability(scale=0.06, core_counts=(2, 4),
                                     groups=("cilk",))
    designs = {s["design"] for s in data["series"]}
    assert designs == {"WS+", "W+", "Wee"}
    cores = {s["cores"] for s in data["series"]}
    assert cores == {2, 4}
    assert "Figure 12" in figures.render_fig12(data)


def test_table4_structure_small():
    data = tables.table4_characterization(
        scale=0.08, num_cores=2, apps={"cilk": ("fib",)})
    (row,) = data["rows"]
    assert row["group"] == "CilkApps"
    assert row["splus_sf_per_ki"] > 0
    assert "Table 4" in tables.render_table4(data)


def test_static_tables_render():
    assert "WS+" in tables.table1()
    assert "140 entries" in tables.table2()
    assert "cilksort" in tables.table3()


def test_report_helpers():
    t = report.format_table(("a", "b"), [(1, 2), (30, 40)], title="T")
    assert "T" in t and "30" in t
    bar = report.stacked_bar(
        {"busy": 0.5, "fence_stall": 0.25, "other_stall": 0.25}, 1.0,
        width=20)
    assert bar.count("#") == 10 and bar.count("F") == 5
    assert report.geo_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert report.mean([]) == 0.0
