"""The repo's benchmark: four workloads, host-time end-to-end metrics,
and a per-layer profile taken from outside the simulator.

Two ways to run it, from the root of a checkout:

``python3 bench/run.py --seed N [--strict]``
    everything: five rounds of every workload, interleaved round-robin,
    each round in a fresh child process; then one traced pass per
    workload; prints every metric by name with its unit and writes the
    report to ``bench/out/results.json``.  ``--aa`` does this twice,
    compares the two sets against the bounds and writes
    ``bench/out/aa.json``.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload for about S seconds (the benchmark driver's contract);
    the last line of standard output is one JSON object.

See ``bench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

from layer_trace import STRATA  # noqa: E402  (stdlib imports only)
from workloads import PAPER_USTM_SPEEDUP, SPIN_REF_S, WORKLOADS  # noqa: E402

#: (name, unit, better, regression bound as a share of the median)
END_TO_END = (
    ("wall_s", "s", "lower", 0.15),
    ("ops_per_s", "ops/s", "higher", 0.15),
    ("cpu_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.20),
)

#: derived per-layer metrics: (name, unit, better)
DERIVED = (
    ("trace.overhead_x", "x", "lower"),
    ("host.spin_ms", "ms", "lower"),
    ("host.wall_raw_s", "s", "lower"),
    ("common.events.executed", "count", "lower"),
    ("common.events.events_per_s", "1/s", "higher"),
    ("sim.machine.instr_per_s", "1/s", "higher"),
    ("sim.machine.construct_ms_p50", "ms", "lower"),
    ("core.cpu.instructions", "count", "lower"),
    ("core.cpu.fence_stall_share", "fraction", "lower"),
    ("mem.l1controller.hit_rate", "fraction", "higher"),
    ("mem.directory.transactions", "count", "lower"),
    ("mem.noc.bytes", "bytes", "lower"),
    ("mem.writebuffer.write_retries", "count", "lower"),
    ("core.bypass_set.bounces", "count", "lower"),
    ("fences.sf_executed", "count", "lower"),
    ("fences.wf_executed", "count", "higher"),
    ("fences.wplus_recoveries", "count", "lower"),
    ("fences.speedup_wsplus", "x", "higher"),
    ("fences.speedup_wplus", "x", "higher"),
    ("fences.speedup_wee", "x", "higher"),
    ("verify.runs_per_s", "1/s", "higher"),
    ("verify.run_ms_p50", "ms", "lower"),
    ("verify.run_ms_p99", "ms", "lower"),
    ("synth.runs_per_s", "1/s", "higher"),
    ("obs.tracer.on_over_off", "x", "lower"),
    ("obs.attrib.on_over_off", "x", "lower"),
    ("sanitizer.on_over_off", "x", "lower"),
    ("faults.injector.on_over_off", "x", "lower"),
    ("obs.export.bytes", "bytes", "lower"),
    ("farm.jobs_per_s_pooled", "1/s", "higher"),
    ("farm.jobs_per_s_inline", "1/s", "higher"),
    ("farm.overhead_ms_per_job", "ms", "lower"),
    ("farm.cached_resubmit_s", "s", "lower"),
    ("farm.cache_hit_share", "fraction", "higher"),
    ("farm.store.duplicates", "count", "lower"),
    ("farm.job_ms_p50", "ms", "lower"),
    ("farm.job_ms_p95", "ms", "lower"),
)

PER_LAYER = tuple(
    (f"{stratum}.{field}", unit, "lower")
    for stratum in STRATA
    for field, unit in (("calls", "count"), ("self_s", "s"),
                        ("self_share", "fraction"))
) + DERIVED

PROBE_STRATA = ("obs.tracer", "obs.export", "obs.attrib", "sanitizer",
                "faults.injector")
FARM_STRATA = ("farm.store", "farm.worker", "farm.campaign")
#: probe leg of probes_on -> the metric its cost over ``plain`` feeds
PROBE_LEG_METRIC = {
    "traced": "obs.tracer.on_over_off",
    "attributed": "obs.attrib.on_over_off",
    "sanitized": "sanitizer.on_over_off",
    "faulted": "faults.injector.on_over_off",
}

#: what the driver passes as ``--seconds``: 92 runs must end in 3420 s
RUN_SECONDS = 30
MIN_ROUNDS = 5
#: what a traced round costs, in untraced rounds (measured 1.7-2.6)
TRACED_COST_X = 3.0
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    """A round's process crashed, hung or printed no result."""


# ---------------------------------------------------------------------------
# running one round
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    """The child's environment: no ambient ``REPRO_*`` knob may change
    the measured program.  The farm's content keys need a code revision;
    pinning it keeps ``git`` from being run in (and above) the checkout.
    A fixed hash seed keeps dict/set layouts the same from round to
    round."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_CODE_REV"] = "bench"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(workload: str, seed: int, traced: bool = False) -> dict:
    """One round in a fresh process; returns the child's result."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(time.monotonic())]
    if traced:
        cmd.append("--traced")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool
        proc.communicate()
        raise ChildFailed(f"{workload}: no result in {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{workload}: child printed no result") from None


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summarize(values) -> dict:
    values = [float(v) for v in values]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def round_metrics(result: dict) -> dict:
    """The end-to-end metrics of one round."""
    passed = result["attempted"] - result["failed"]
    return {
        "wall_s": result["wall_s"],
        "ops_per_s": passed / result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": result["setup_s"],
    }


def end_to_end(rounds) -> dict:
    """``{metric: summary}`` over the untraced rounds of one workload."""
    per_round = [round_metrics(r) for r in rounds]
    return {name: summarize(m[name] for m in per_round)
            for name, _unit, _better, _bound in END_TO_END}


def verdict(rounds, traced=None) -> dict:
    """attempted / failed over every round, plus digest consistency."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    digests = {r["sim_digest"] for r in rounds}
    if traced is not None:
        digests.add(traced["sim_digest"])
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
    if len(digests) > 1:
        failed += len(digests) - 1
        failures.append(f"sim_digest differs between rounds of one seed: "
                        f"{sorted(digests)}")
    return {"attempted": attempted, "failed": failed,
            "failures": failures[:20],
            "fail_share": failed / attempted if attempted else 1.0,
            "sim_digest": rounds[0]["sim_digest"] if rounds else None}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _leg_median(rounds, leg: str) -> float:
    walls = [r["legs"][leg]["wall_s"] for r in rounds
             if leg in r["legs"]]
    return statistics.median(walls) if walls else 0.0


def per_layer(workload: str, rounds, traced: dict) -> dict:
    """Every per-layer metric of one workload: strata from the traced
    pass, rates and ratios from the untraced rounds, simulated counters
    from the traced pass's machines (they repeat exactly)."""
    m = {name: 0.0 for name, _unit, _better in PER_LAYER}
    trace = traced["trace"]
    for stratum, row in trace["strata"].items():
        for field in ("calls", "self_s", "self_share"):
            m[f"{stratum}.{field}"] = row[field]
    raw_wall = statistics.median(r["raw_wall_s"] for r in rounds)
    wall = statistics.median(r["wall_s"] for r in rounds)
    m["trace.overhead_x"] = trace["wall_s"] / raw_wall
    m["host.wall_raw_s"] = raw_wall
    m["host.spin_ms"] = 1e3 * SPIN_REF_S * raw_wall / wall

    sim = trace["sim"]
    # machines run in this process only: the farm's pool workers have
    # their own
    in_process = wall
    if workload == "farm_campaign":
        in_process = _leg_median(rounds, "local") + _leg_median(
            rounds, "inline")
    m["common.events.executed"] = sim["executed"]
    m["common.events.events_per_s"] = sim["executed"] / in_process
    m["sim.machine.instr_per_s"] = sim["instructions"] / in_process
    m["sim.machine.construct_ms_p50"] = percentile(trace["construct_ms"], 50)
    m["core.cpu.instructions"] = sim["instructions"]
    accounted = sim["busy"] + sim["fence_stall"] + sim["other_stall"]
    if accounted:
        m["core.cpu.fence_stall_share"] = sim["fence_stall"] / accounted
    accesses = sim["l1_hits"] + sim["l1_misses"]
    if accesses:
        m["mem.l1controller.hit_rate"] = sim["l1_hits"] / accesses
    m["mem.directory.transactions"] = sim["coherence_transactions"]
    m["mem.noc.bytes"] = sim["network_bytes"]
    m["mem.writebuffer.write_retries"] = sim["write_retries"]
    m["core.bypass_set.bounces"] = sim["bounces"]
    m["fences.sf_executed"] = sim["sf_executed"]
    m["fences.wf_executed"] = sim["wf_executed"]
    m["fences.wplus_recoveries"] = sim["wplus_recoveries"]

    extras = rounds[0]["extras"]
    if workload == "sweep_hot":
        speedup = extras["speedup"]
        m["fences.speedup_wsplus"] = speedup.get("WS+", 0.0)
        m["fences.speedup_wplus"] = speedup.get("W+", 0.0)
        m["fences.speedup_wee"] = speedup.get("Wee", 0.0)
    m["verify.run_ms_p50"] = percentile(trace["case_ms"], 50)
    m["verify.run_ms_p99"] = percentile(trace["case_ms"], 99)
    if workload == "litmus_storm":
        m["verify.runs_per_s"] = extras["verify_runs"] / _leg_median(
            rounds, "verify")
        m["synth.runs_per_s"] = extras["synth_runs"] / _leg_median(
            rounds, "synth")
    if workload == "probes_on":
        for leg, name in PROBE_LEG_METRIC.items():
            m[name] = statistics.median(
                r["legs"][leg]["wall_s"]
                / r["legs"]["plain"]["wall_s"] for r in rounds)
        m["obs.export.bytes"] = extras["export_bytes"]
    if workload == "farm_campaign":
        jobs = extras["jobs"]
        m["farm.jobs_per_s_pooled"] = jobs / _leg_median(rounds, "pooled")
        m["farm.jobs_per_s_inline"] = jobs / _leg_median(rounds, "inline")
        m["farm.overhead_ms_per_job"] = 1e3 * statistics.median(
            r["legs"]["inline"]["wall_s"]
            - r["legs"]["local"]["wall_s"] for r in rounds) / jobs
        m["farm.cached_resubmit_s"] = _leg_median(rounds, "cached")
        m["farm.cache_hit_share"] = extras["cache_hit_share"]
        m["farm.store.duplicates"] = extras["duplicates"]
    m["farm.job_ms_p50"] = percentile(trace["job_ms"], 50)
    m["farm.job_ms_p95"] = percentile(trace["job_ms"], 95)
    return m


def contrast_problems(workload: str, traced: dict) -> list:
    """Is the workload still stressing the layers it was built for?"""
    trace = traced["trace"]
    strata = trace["strata"]
    problems = []

    def share(*names):
        return sum(strata[n]["self_share"] for n in names)

    def calls(*names):
        return sum(strata[n]["calls"] for n in names)

    if strata["other"]["self_share"] > 0.10:
        problems.append(
            f"other.self_share {strata['other']['self_share']:.3f} > 0.10")
    build = share("sim.scv", "sim.machine")
    if workload == "litmus_storm" and build < 0.25:
        problems.append(f"sim.scv+sim.machine share {build:.3f} < 0.25")
    if workload == "sweep_hot":
        if build > 0.02:
            problems.append(f"sim.scv+sim.machine share {build:.3f} > 0.02")
        if calls(*PROBE_STRATA):
            problems.append("probe strata were called with probes off")
    if workload == "farm_campaign":
        leg = trace["leg_self_s"]["inline"]
        inline_wall = traced["legs"]["inline"]["wall_s"]
        farm = sum(leg[n] for n in FARM_STRATA) / inline_wall
        if farm < 0.30:
            problems.append(f"farm.* share of the inline leg {farm:.3f} "
                            f"< 0.30")
    elif calls(*FARM_STRATA):
        problems.append("farm strata were called outside farm_campaign")
    return problems


def write_trace(workload: str, traced: dict) -> str:
    """``bench/out/trace_<workload>.json``: strata, per-leg strata and
    the coarse spans of the traced pass."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{workload}.json")
    trace = traced["trace"]
    with open(path, "w") as fh:
        json.dump({
            "workload": workload, "seed": traced["seed"],
            "traced_wall_s": trace["wall_s"],
            "strata": trace["strata"],
            "leg_self_s": trace["leg_self_s"],
            "legs": traced["legs"],
            "sim": trace["sim"],
            "spans": trace["spans"],
        }, fh)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# driver mode: one workload, one JSON line
# ---------------------------------------------------------------------------

def run_driver(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    rounds = []
    # a traced run still needs untraced rounds: rates, ratios and
    # trace.overhead_x are measured with tracing off
    least = 2 if trace else MIN_ROUNDS
    reserve = TRACED_COST_X if trace else 0.0
    cost = 0.0
    while True:
        t0 = time.monotonic()
        rounds.append(run_round(workload, seed))
        cost = max(cost, time.monotonic() - t0)
        spent = time.monotonic() - started
        if len(rounds) >= least and spent + cost * (1 + reserve) > seconds:
            break
    traced = run_round(workload, seed, traced=True) if trace else None
    outcome = verdict(rounds, traced)
    if trace:
        write_trace(workload, traced)
        for problem in contrast_problems(workload, traced):
            print(f"warning: {workload}: {problem}", file=sys.stderr)
        values = per_layer(workload, rounds, traced)
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        values = {k: v["median"] for k, v in end_to_end(rounds).items()}
        units = {name: unit for name, unit, _b, _bound in END_TO_END}
    for failure in outcome["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


# ---------------------------------------------------------------------------
# full mode: every workload, tables, optional A/A
# ---------------------------------------------------------------------------

def run_set(seed: int, log) -> dict:
    """One full set: interleaved untraced rounds, then a traced pass."""
    names = list(WORKLOADS)
    untraced = {name: [] for name in names}
    for i in range(MIN_ROUNDS):
        for name in names:
            untraced[name].append(run_round(name, seed))
            log(f"round {i + 1}/{MIN_ROUNDS} {name}: "
                f"{untraced[name][-1]['wall_s']:.3f}s")
    result = {}
    for name in names:
        traced = run_round(name, seed, traced=True)
        log(f"traced {name}: {traced['trace']['wall_s']:.3f}s "
            f"-> {os.path.relpath(write_trace(name, traced), ROOT)}")
        outcome = verdict(untraced[name], traced)
        result[name] = {
            "why": WORKLOADS[name].why,
            "end_to_end": end_to_end(untraced[name]),
            "fail_share": outcome["fail_share"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "failures": outcome["failures"],
            "sim_digest": outcome["sim_digest"],
            "per_layer": per_layer(name, untraced[name], traced),
            "contrast_problems": contrast_problems(name, traced),
        }
    return result


def host_metadata() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=5,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_set(result: dict) -> None:
    names = list(result)
    print("\nEnd-to-end (host time in reference-host seconds; median "
          "[q1 .. q3] min/max n)")
    for metric, unit, better, bound in END_TO_END:
        print(f"  {metric} [{unit}] ({better} is better, bound "
              f"{bound:.0%})")
        for name in names:
            s = result[name]["end_to_end"][metric]
            print(f"    {name:14s} {s['median']:12.4f} "
                  f"[{s['q1']:.4f} .. {s['q3']:.4f}] "
                  f"min {s['min']:.4f} max {s['max']:.4f} n={s['n']}")
    print("  fail_share [fraction] (lower is better, expected 0)")
    for name in names:
        r = result[name]
        print(f"    {name:14s} {r['fail_share']:12.4f} "
              f"({r['failed']} of {r['attempted']} ops)   "
              f"sim_digest {r['sim_digest'][:16]}")
    print("\nPer-layer (traced pass; host time unless the name says "
          "simulated counters)")
    print(f"  {'metric':34s} {'unit':9s}" + "".join(
        f"{name:>16s}" for name in names))
    for metric, unit, _better in PER_LAYER:
        row = [result[name]["per_layer"][metric] for name in names]
        if not any(row):
            continue
        print(f"  {metric:34s} {unit:9s}" + "".join(
            f"{v:16.4f}" if isinstance(v, float) else f"{v:16d}"
            for v in row))
    ours = result["sweep_hot"]["per_layer"]
    print("\n  simulated ustm speed-up over S+ (ours / paper Fig. 9; the "
          "model is shape-validated only, no error claim):")
    for design, key in (("WS+", "wsplus"), ("W+", "wplus"), ("Wee", "wee")):
        print(f"    {design:4s} {ours['fences.speedup_' + key]:.2f} / "
              f"{PAPER_USTM_SPEEDUP[design]:.2f}")


def problems_of(result: dict) -> list:
    found = []
    for name, r in result.items():
        found += [f"{name}: {p}" for p in r["contrast_problems"]]
        if r["failed"]:
            found.append(f"{name}: {r['failed']} failed ops, e.g. "
                         f"{r['failures'][:2]}")
    return found


def compare_sets(first: dict, second: dict) -> dict:
    """A/A report: per (metric, workload) the relative difference of
    the second set's median against the first, and its bound."""
    rows, breaches = [], []
    for name in first:
        for metric, _unit, better, bound in END_TO_END:
            a = first[name]["end_to_end"][metric]["median"]
            b = second[name]["end_to_end"][metric]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            row = {"workload": name, "metric": metric, "first": a,
                   "second": b, "worse_by": worse, "bound": bound,
                   "ok": worse <= bound}
            rows.append(row)
            if not row["ok"]:
                breaches.append(row)
        if first[name]["sim_digest"] != second[name]["sim_digest"]:
            breaches.append({"workload": name, "metric": "sim_digest",
                             "ok": False})
        for which in (first, second):
            if which[name]["failed"]:
                breaches.append({"workload": name, "metric": "fail_share",
                                 "ok": False})
    return {"rows": rows, "breaches": breaches}


def run_full(args) -> int:
    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    first = run_set(args.seed, log)
    print_set(first)
    report = {"seed": args.seed, "rounds": MIN_ROUNDS,
              "host": host_metadata(), "workloads": first}
    problems = problems_of(first)
    if args.aa:
        second = run_set(args.seed, log)
        print_set(second)
        comparison = compare_sets(first, second)
        report = {"seed": args.seed, "rounds": MIN_ROUNDS,
                  "host": report["host"], "first": first, "second": second,
                  "comparison": comparison}
        print("\nA/A: second set against the first (positive = worse)")
        for row in comparison["rows"]:
            print(f"  {row['workload']:14s} {row['metric']:12s} "
                  f"{row['worse_by']:+8.2%}  bound {row['bound']:.0%}  "
                  f"{'ok' if row['ok'] else 'BREACH'}")
        problems += [f"A/A breach: {b['workload']} {b['metric']}"
                     for b in comparison["breaches"]]
        problems += problems_of(second)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "aa.json" if args.aa else "results.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(out, ROOT)}")
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    breached = args.aa and report["comparison"]["breaches"]
    failed = any(r["failed"] for r in first.values())
    return 1 if breached or failed or (args.strict and problems) else 0


def benchmark_spec() -> dict:
    """What ``BENCHMARK.json`` must say, from the tables above
    (``--print-spec`` regenerates the file; the self-test compares)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="two back-to-back sets, compared to the bounds")
    parser.add_argument("--strict", action="store_true",
                        help="a missed workload-contrast threshold fails")
    parser.add_argument("--print-spec", action="store_true",
                        help="print BENCHMARK.json as the code defines it")
    args = parser.parse_args(argv)
    if args.print_spec:
        print(json.dumps(benchmark_spec(), indent=2))
        return 0
    try:
        if args.workload:
            return run_driver(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        return run_full(args)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
