"""Perf-harness smoke: run the tiny matrix and exercise the comparator.

This is *not* the regression gate (CI runs ``repro perf`` directly for
that); it proves the harness end-to-end — timing, snapshot round-trip,
comparison — stays runnable as part of the benchmark suite.
"""

from repro.perf import harness


def test_tiny_profile_and_comparator(tmp_path, benchmark):
    snap = benchmark.pedantic(
        harness.run_profile, args=("tiny",), kwargs={"reps": 1},
        rounds=1, iterations=1,
    )
    assert snap["cases"], "tiny profile produced no cases"
    for case in snap["cases"]:
        assert case["median_s"] > 0
        assert case["events_executed"] > 0

    path = tmp_path / "BENCH_perf.json"
    harness.write_snapshot(snap, str(path))
    reread = harness.load_snapshot(str(path))
    assert reread == snap

    comparison = harness.compare_snapshots(reread, snap, threshold=1.25)
    assert comparison["ok"]
    assert comparison["median_speedup"] == 1.0
    assert not comparison["unmatched_keys"]

