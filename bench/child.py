"""One round of one workload, in a process of its own.

``run.py`` starts this file once per round with a scrubbed environment.
Order of events: import the simulator and build the inputs (*set-up*),
collect garbage, run the body under the clock (GC left enabled — what
users run), stop the clock, judge the outputs.  With ``--traced`` the
layer wrappers of :mod:`layer_trace` are installed before the body builds its
first machine and removed after it.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _peak_rss_mib() -> float:
    """Largest resident set of this process or any waited-for child
    (Linux reports ``ru_maxrss`` in KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _sim_totals(machines) -> dict:
    """Simulated counters summed over every machine the body ran."""
    total = {
        "machines": len(machines), "executed": 0, "cycles": 0,
        "instructions": 0, "busy": 0.0, "fence_stall": 0.0,
        "other_stall": 0.0, "l1_hits": 0, "l1_misses": 0,
        "coherence_transactions": 0, "network_bytes": 0,
        "write_retries": 0, "bounces": 0, "sf_executed": 0,
        "wf_executed": 0, "wplus_recoveries": 0,
    }
    for executed, stats in machines:
        total["executed"] += executed
        total["cycles"] += stats.cycles
        total["instructions"] += stats.total_instructions
        for key, value in stats.total_breakdown().items():
            total[key] += value
        for key in ("l1_hits", "l1_misses", "coherence_transactions",
                    "network_bytes", "write_retries", "bounces",
                    "wplus_recoveries"):
            total[key] += getattr(stats, key)
        total["sf_executed"] += stats.total_sf
        total["wf_executed"] += stats.total_wf
    return total


def _span_durations_ms(spans, name):
    return sorted(1e3 * (s["end_s"] - s["start_s"])
                  for s in spans if s["name"] == name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, BENCH_DIR]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit("bench: repro was imported from outside this checkout")
    # set-up: everything the body would otherwise import lazily
    import repro.farm  # noqa: F401
    import repro.farm.clients  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.obs.analyze  # noqa: F401
    import repro.obs.export  # noqa: F401
    import repro.sanitizer  # noqa: F401
    import repro.synth  # noqa: F401
    import repro.verify  # noqa: F401
    from repro.workloads.base import load_all_workloads

    import layer_trace
    from workloads import WORKLOADS, Recorder

    load_all_workloads()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        inputs = workload.prepare(args.seed, tmp)
        tracer = layer_trace.LayerTracer() if args.traced else None
        rec = Recorder(tracer)
        if tracer is not None:
            tracer.install()
        gc.collect()
        setup_s = time.monotonic() - args.spawned_at
        rec.start()
        with tracer or contextlib.nullcontext():
            outputs = workload.body(inputs, rec)
        verdict = workload.judge(inputs, outputs, rec)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        # reference-host seconds; the body's wall also as the host ran it
        "wall_s": rec.wall_s,
        "raw_wall_s": rec.raw_wall_s,
        "cpu_s": rec.cpu_s,
        "setup_s": setup_s * rec.setup_scale,
        "peak_rss_mb": _peak_rss_mib(),
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "failures": rec.failures[:20],
        "sim_digest": verdict["sim_digest"],
        "extras": verdict["extras"],
        "legs": {name: {"wall_s": leg["wall_s"],
                        "raw_wall_s": leg["raw_wall_s"]}
                 for name, leg in rec.legs.items()},
    }
    if tracer is not None:
        spans = tracer.coarse_spans()
        result["trace"] = {
            "wall_s": tracer.wall_s,
            "strata": tracer.strata(),
            "leg_self_s": {
                name: dict(zip(layer_trace.STRATA, leg["self_s"]))
                for name, leg in rec.legs.items() if "self_s" in leg
            },
            "sim": _sim_totals(tracer.machines),
            "construct_ms": _span_durations_ms(spans, "construct"),
            "case_ms": _span_durations_ms(spans, "case"),
            "job_ms": _span_durations_ms(spans, "job"),
            "spans": spans,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
