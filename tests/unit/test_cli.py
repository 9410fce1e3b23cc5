"""CLI smoke tests (``python -m repro``)."""

import pytest

from repro.cli import _SHARED_FLAGS, _parent, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "fib" in out and "TreeOverwrite" in out and "vacation" in out
    assert "S+" in out and "Wee" in out


def test_run_single_design(capsys):
    code, out = run_cli(capsys, "run", "fib", "--design", "S+",
                        "--cores", "2", "--scale", "0.06")
    assert code == 0
    assert "fib under S+" in out
    assert "tasks executed" in out


def test_run_unknown_workload(capsys):
    code = main(["run", "nope", "--cores", "2"])
    assert code == 2


def test_litmus_sb(capsys):
    code, out = run_cli(capsys, "litmus", "sb", "--design", "W+")
    assert code == 0
    assert "SC preserved" in out


def test_litmus_mp_all_designs(capsys):
    from repro.common.params import FenceDesign
    code, out = run_cli(capsys, "litmus", "mp")
    assert code == 0
    assert out.count("SC preserved") == len(FenceDesign)


def test_table_static(capsys):
    for n, marker in ((1, "WS+"), (2, "140 entries"), (3, "cilksort")):
        code, out = run_cli(capsys, "table", str(n))
        assert code == 0 and marker in out


def test_table_out_of_range(capsys):
    assert main(["table", "9"]) == 2


def test_figure_out_of_range(capsys):
    assert main(["figure", "1"]) == 2


def test_design_argument_accepts_both_spellings():
    parser = build_parser()
    args = parser.parse_args(["run", "fib", "--design", "WS_PLUS"])
    assert str(args.design) == "WS+"
    args = parser.parse_args(["run", "fib", "--design", "WS+"])
    assert str(args.design) == "WS+"


def test_design_argument_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fib", "--design", "XX"])


def test_run_prints_completed_line(capsys):
    code, out = run_cli(capsys, "run", "fib", "--design", "S+",
                        "--cores", "2", "--scale", "0.06")
    assert code == 0
    assert "completed     : yes" in out


def test_print_run_distinguishes_cutoff_in_recovery(capsys):
    from repro.cli import _print_run
    from repro.common.params import FenceDesign
    from repro.common.stats import MachineStats
    from repro.sim.machine import SimResult
    from repro.workloads.base import WorkloadRun

    def fake_run(completed, in_recovery):
        stats = MachineStats(2)
        stats.cutoff_in_recovery = in_recovery
        result = SimResult(stats=stats, cycles=1000, completed=completed)
        return WorkloadRun(name="fib", group="cilk",
                           design=FenceDesign.W_PLUS, num_cores=2,
                           result=result)

    _print_run(fake_run(completed=True, in_recovery=False))
    assert "completed     : yes" in capsys.readouterr().out

    _print_run(fake_run(completed=False, in_recovery=False))
    assert "no (cycle budget hit)" in capsys.readouterr().out

    _print_run(fake_run(completed=False, in_recovery=True))
    out = capsys.readouterr().out
    assert "no (cycle budget hit during W+ recovery)" in out


def test_design_accepts_normalized_aliases():
    parser = build_parser()
    for spelling in ("wplus", "W+", "w_plus", "WPLUS"):
        args = parser.parse_args(["run", "fib", "--design", spelling])
        assert str(args.design) == "W+"
    args = parser.parse_args(["run", "fib", "--design", "wee"])
    assert str(args.design) == "Wee"


def test_run_trace_out_writes_chrome_trace(capsys, tmp_path):
    import json

    from repro.obs.export import validate_chrome_trace

    out_path = tmp_path / "t.json"
    code, out = run_cli(capsys, "run", "fib", "--design", "wplus",
                        "--cores", "2", "--scale", "0.06",
                        "--trace-out", str(out_path))
    assert code == 0
    assert "trace written to" in out
    trace = json.loads(out_path.read_text())
    assert validate_chrome_trace(trace) == []


def test_run_trace_out_all_designs_gets_per_design_files(capsys, tmp_path):
    from repro.common.params import FenceDesign

    out_path = tmp_path / "t.json"
    code, _ = run_cli(capsys, "run", "fib", "--all-designs",
                      "--cores", "2", "--scale", "0.06",
                      "--trace-out", str(out_path))
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == len(list(FenceDesign))
    assert "t.w.json" in written and "t.wee.json" in written


def test_trace_subcommand_prints_timeline_summary(capsys):
    # `repro run --trace` is the one way to trace a run
    code, out = run_cli(capsys, "run", "fib", "--design", "W+",
                        "--cores", "2", "--scale", "0.06", "--trace")
    assert code == 0
    assert "trace summary" in out
    assert "event counts" in out
    assert "stats cross-check" in out
    assert "top 10 longest fence episodes" in out
    assert "interval metrics" not in out


def test_trace_subcommand_jsonl_export(capsys, tmp_path):
    out_path = tmp_path / "t.jsonl"
    code, out = run_cli(capsys, "run", "fib", "--design", "S+",
                        "--cores", "2", "--scale", "0.06",
                        "--trace-out", str(out_path),
                        "--trace-format", "jsonl")
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert '"type":"meta"' in lines[0].replace(" ", "")
    assert all('"type":"event"' in line for line in lines[1:])


def test_trace_unknown_workload(capsys):
    assert main(["run", "nope", "--trace"]) == 2


@pytest.mark.parametrize("argv", [
    ["trace", "fib"],
    ["run", "fib", "--metrics-interval", "500"],
])
def test_trace_subcommand_and_metrics_interval_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# --- flags several commands share come from one parent parser each ---

#: command -> (argv that selects it, the shared flag groups it takes)
SHARED = {
    "run": (["run", "fib"], ("sanitize", "wall_rss", "events")),
    "synth": (["synth"], ("sanitize", "wall_rss", "farm")),
    "chaos": (["chaos"], ("sanitize", "farm")),
    "farm submit": (["farm", "submit", "--workloads", "fib"],
                    ("sanitize", "events")),
}
SAMPLE = {"--sanitize": ["warn"], "--max-wall-secs": ["1.5"],
          "--max-rss-mb": ["64"], "--max-events": ["1000"],
          "--farm-db": ["f.sqlite"], "--farm-workers": ["0"]}
#: the one default a command sets for itself
OWN_DEFAULT = {("chaos", "sanitize"): "strict"}


@pytest.mark.parametrize("command,group,flag", [
    (command, group, flag)
    for command, (_, groups) in SHARED.items()
    for group in groups for flag in _SHARED_FLAGS[group]])
def test_shared_flag_parses_as_at_its_parent(command, group, flag):
    argv = SHARED[command][0]
    dest = flag[2:].replace("-", "_")
    given = [flag] + SAMPLE[flag]
    at_parent = getattr(_parent(group).parse_args(given), dest)
    assert at_parent is not None
    assert getattr(build_parser().parse_args(argv + given), dest) == at_parent
    default = getattr(build_parser().parse_args(argv), dest)
    assert default == OWN_DEFAULT.get(
        (command, dest), getattr(_parent(group).parse_args([]), dest))


@pytest.mark.parametrize("flag", [["--journal", "j.jsonl"], ["--resume"],
                                  ["--overwrite-journal"]],
                         ids=["journal", "resume", "overwrite-journal"])
def test_synth_journal_flags_are_gone(flag):
    """The farm store (``--farm-db``) is synth's one checkpoint."""
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", *flag])
    assert excinfo.value.code == 2
