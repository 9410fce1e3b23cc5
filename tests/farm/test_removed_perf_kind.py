"""The timing surface that ``bench/`` replaced is gone, not hidden.

There is no ``repro perf`` and no farm ``perf`` job kind (it was the
one non-deterministic kind).  Argparse refuses both; a store file
written while the kind existed is refused by name, not with a
traceback, and ``gc`` can still clear it.
"""

import json
import sqlite3
import time

import pytest

from repro.cli import main
from repro.farm.exec import EXECUTORS
from repro.farm.spec import KINDS
from repro.farm.store import FarmStore


@pytest.mark.parametrize("argv", [
    ["perf", "--profile", "tiny", "--report-only"],
    ["farm", "submit", "--kind", "perf", "--workloads", "fib"],
    ["farm", "submit", "--workloads", "fib", "--reps", "1"],
], ids=["repro-perf", "farm-kind-perf", "farm-reps"])
def test_removed_commands_are_usage_errors(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse


def test_every_kind_has_an_executor_and_none_is_perf():
    assert KINDS == ("matrix", "chaos", "synth")
    assert set(EXECUTORS) == set(KINDS)


def _store_with_a_finished_perf_campaign(path):
    """What a PR-19 ``repro perf --farm-db`` left behind, written raw
    (no current code can produce these rows)."""
    job = {"kind": "perf", "workload": "fib", "design": "S_PLUS",
           "seed": 12345, "cores": 4, "scale": 0.2,
           "config": '{"reps":1}', "code_rev": "1d33b30"}
    campaign = {"kind": "perf", "workloads": ["fib"], "designs": ["S_PLUS"],
                "seeds": [12345], "core_counts": [4], "scale": 0.2,
                "config": '{"reps":1}', "code_rev": "1d33b30"}
    FarmStore(path).close()  # the schema
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("INSERT INTO campaigns VALUES (?, ?, ?)",
                     ("c0ld", json.dumps(campaign), time.time()))
        conn.execute("INSERT INTO jobs (key, campaign, spec, state)"
                     " VALUES ('k0ld', 'c0ld', ?, 'done')",
                     (json.dumps(job),))
        conn.execute("INSERT INTO results (key, row, created_at)"
                     " VALUES ('k0ld', '{\"median_s\": 0.04}', ?)",
                     (time.time(),))
    conn.close()


def test_old_store_with_a_perf_campaign_is_refused_by_name(tmp_path, capsys):
    db = str(tmp_path / "farm.sqlite")
    _store_with_a_finished_perf_campaign(db)
    for argv in (["farm", "status", "--db", db],
                 ["farm", "resume", "--db", db, "c0ld", "--workers", "0"]):
        assert main(argv) == 2
        assert "unknown job kind 'perf'" in capsys.readouterr().err


def test_gc_still_drops_an_old_perf_campaign(tmp_path, capsys):
    db = str(tmp_path / "farm.sqlite")
    _store_with_a_finished_perf_campaign(db)
    assert main(["farm", "gc", "--db", db, "--prune-cache"]) == 0
    assert "dropped 1 finished campaign(s) (1 job row(s)), pruned 1" \
        in capsys.readouterr().out
    assert main(["farm", "status", "--db", db]) == 0
    assert "no campaigns" in capsys.readouterr().out
