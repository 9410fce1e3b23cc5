"""Trace exporters: Chrome ``trace_event`` JSON and a JSONL stream.

Chrome format
-------------
``to_chrome_trace`` produces the *JSON Object Format* of the Trace
Event spec — ``{"traceEvents": [...], ...}`` — loadable directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Mapping:

* one Chrome *thread* per track: tid ``c`` for core ``c``, tid
  ``100+b`` for directory bank ``b``, tid 900 for the NoC, tid 901 for
  core-less sanitizer violations — each named via ``thread_name``
  metadata so the UI shows ``core 0``, ``dir 1``, ``noc`` swimlanes;
* spans become complete events (``"ph": "X"``) with ``ts``/``dur`` in
  microseconds at 1 cycle = 1 µs (cycle numbers read directly off the
  Perfetto time axis);
* instants become ``"ph": "i"`` thread-scoped events;
* counter samples (write-buffer depth) become ``"ph": "C"`` counter
  events, one series per core.

``write_chrome_trace`` streams the same events to the file one at a
time, so its memory does not grow with the trace.

JSONL format
------------
``write_jsonl`` emits one JSON object per line: a ``meta`` header,
then every trace record (``type: "event"``).  It is the compact
machine-readable stream for ad-hoc analysis (``jq``, pandas) where the
Chrome envelope gets in the way.  The tracer stores flat records; here
a record of a fixed-shape kind becomes its line through one
``%``-template derived from the kind table — byte for byte what the
JSON encoder writes for its view, which the other kinds (args dicts,
bool fields, an open span) go through.  Lines go to the file as they
are formatted.

``validate_chrome_trace`` is the schema check CI runs against every
exported trace; it is intentionally dependency-free (no jsonschema).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

from repro.obs.tracer import (
    BOOL_FIELDS, DIR_TXN_OPEN, KINDS, STR_FIELDS,
    TRACK_DIR_BASE, TRACK_NOC, TRACK_SANITIZER, Tracer, view,
)

#: Chrome pid used for the whole simulated machine
PID = 1


def run_provenance(run, fault_scenario: Optional[str] = None) -> Dict[str, object]:
    """Provenance header for a :class:`~repro.workloads.base.WorkloadRun`.

    Recorded in the JSONL ``meta`` line and the Chrome ``otherData`` so
    a trace on disk is self-describing: the analytics loader
    (:mod:`repro.obs.analyze`) *requires* these fields to replay
    attribution and label reports.
    """
    result = run.result
    design = run.design
    return {
        "workload": run.name,
        "design": design.value if hasattr(design, "value") else str(design),
        "seed": run.seed,
        "cores": run.num_cores,
        "scale": run.scale,
        # the simulator has one event kernel; the field stays because
        # traces on disk carry it and the loader requires it
        "kernel": "object",
        "sanitize": run.sanitize,
        "fault_scenario": fault_scenario,
        "degraded": bool(getattr(result, "degraded", False)),
        "degraded_reason": getattr(result, "degraded_reason", None),
    }


def track_name(track: int) -> str:
    """Human-readable lane name for a track id."""
    if track == TRACK_NOC:
        return "noc"
    if track == TRACK_SANITIZER:
        return "sanitizer"
    if track >= TRACK_DIR_BASE:
        return f"dir {track - TRACK_DIR_BASE}"
    return f"core {track}"


def _metadata_events(tracks) -> List[dict]:
    events = [{
        "ph": "M", "pid": PID, "name": "process_name",
        "args": {"name": "repro simulated machine"},
    }]
    for track in sorted(tracks):
        events.append({
            "ph": "M", "pid": PID, "tid": track, "name": "thread_name",
            "args": {"name": track_name(track)},
        })
        events.append({
            "ph": "M", "pid": PID, "tid": track, "name": "thread_sort_index",
            "args": {"sort_index": track},
        })
    return events


def _chrome_events(tracer: Tracer) -> Iterator[dict]:
    """The ``traceEvents`` of a tracer, one at a time: the lane metadata,
    then one event per record."""
    yield from _metadata_events({rec[1] for rec in tracer.records})
    for ev in map(view, tracer.records):
        rec = {
            "name": ev.name, "cat": ev.cat, "ph": ev.ph,
            "pid": PID, "tid": ev.track, "ts": ev.ts,
        }
        if ev.ph == "X":
            rec["dur"] = ev.dur if ev.dur is not None else 0
            if ev.args:
                rec["args"] = ev.args
        elif ev.ph == "i":
            rec["s"] = "t"  # thread-scoped instant
            if ev.args:
                rec["args"] = ev.args
        else:  # counter
            rec["ph"] = "C"
            rec["args"] = {"value": ev.args["value"]} if ev.args else {}
        yield rec


def _chrome_other_data(tracer: Tracer, label: Optional[str],
                       provenance: Optional[Dict[str, object]]) -> dict:
    other = {
        "exporter": "repro.obs",
        "clock": "1 simulated cycle = 1us",
        "dropped_events": tracer.dropped,
    }
    if label:
        other["label"] = label
    if provenance is not None:
        other["provenance"] = provenance
    return other


def to_chrome_trace(tracer: Tracer,
                    label: Optional[str] = None,
                    provenance: Optional[Dict[str, object]] = None,
                    ) -> Dict[str, object]:
    """Render a tracer as a Chrome trace dict."""
    return {
        "traceEvents": list(_chrome_events(tracer)),
        "displayTimeUnit": "ms",
        "otherData": _chrome_other_data(tracer, label, provenance),
    }


def write_chrome_trace(path: str, tracer: Tracer,
                       label: Optional[str] = None,
                       provenance: Optional[Dict[str, object]] = None,
                       ) -> int:
    """Write the Chrome trace one event at a time — the bytes
    ``json.dump`` writes for :func:`to_chrome_trace` — and return the
    event count."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    count = 0
    with open(path, "w") as fh:
        fh.write('{"traceEvents":[')
        for ev in _chrome_events(tracer):
            fh.write("," + encode(ev) if count else encode(ev))
            count += 1
        fh.write('],"displayTimeUnit":"ms","otherData":'
                 + encode(_chrome_other_data(tracer, label, provenance))
                 + "}\n")
    return count


def _jsonl_template(kind: int) -> Optional[str]:
    """The JSONL line of a fixed-shape record as ``template % record``,
    or ``None`` where only the encoder will do.  ``%r`` of an int or
    float is what ``json`` writes; the leading ``%.0s`` consumes the
    record's kind slot and prints nothing."""
    ph, name, cat, fields = KINDS[kind]
    if fields is None or BOOL_FIELDS.intersection(fields) \
            or kind == DIR_TXN_OPEN:  # no "dur" key while a span is open
        return None
    args = ",".join(f'"{f}":"%s"' if f in STR_FIELDS else f'"{f}":%r'
                    for f in fields)
    return (f'%.0s{{"type":"event","ph":"{ph}","track":%r,"name":"{name}",'
            f'"cat":"{cat}","ts":%r,"dur":%r'
            + (',"args":{' + args + "}}" if fields else "}") + "\n")


_JSONL_TEMPLATES = [_jsonl_template(kind) for kind in range(len(KINDS))]


def write_jsonl(path: str, tracer: Tracer,
                label: Optional[str] = None,
                provenance: Optional[Dict[str, object]] = None) -> int:
    """Write the compact JSONL stream; returns the line count."""
    header = {
        "type": "meta",
        "exporter": "repro.obs",
        "events": len(tracer.records),
        "dropped": tracer.dropped,
    }
    if label:
        header["label"] = label
    if provenance is not None:
        header["provenance"] = provenance
    # one encoder per file: json.dumps(..., separators=) builds one per
    # call, and a trace has tens of thousands of records
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w") as fh:
        fh.write(encode(header) + "\n")
        fh.writelines(
            template % tuple(rec)
            if (template := _JSONL_TEMPLATES[rec[0]]) is not None
            else encode({"type": "event", **view(rec).to_dict()}) + "\n"
            for rec in tracer.records)
    return 1 + len(tracer.records)


# ---------------------------------------------------------------------------
# schema validation (CI gate)
# ---------------------------------------------------------------------------

_ALLOWED_PH = {"X", "i", "I", "C", "M", "B", "E"}


def validate_chrome_trace(trace) -> List[str]:
    """Structural check of a Chrome trace dict; returns error strings.

    Covers the subset of the Trace Event Format this exporter emits:
    the object envelope, required per-phase fields, numeric ts/dur,
    and metadata naming for every referenced thread.
    """
    errors: List[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    named_tids = set()
    used_tids = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _ALLOWED_PH:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        if "name" not in ev:
            errors.append(f"{where}: missing name")
        if ph == "M":
            if ev.get("name") == "thread_name":
                named_tids.add(ev.get("tid"))
            continue
        used_tids.add(ev.get("tid"))
        if not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"{where}: missing/non-numeric ts")
        if "pid" not in ev or "tid" not in ev:
            errors.append(f"{where}: missing pid/tid")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs dur >= 0, got {dur!r}")
        elif ph in ("i", "I"):
            if ev.get("s") not in (None, "t", "p", "g"):
                errors.append(f"{where}: bad instant scope {ev.get('s')!r}")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"{where}: counter needs non-empty args")
            elif not all(isinstance(v, (int, float))
                         for v in args.values()):
                errors.append(f"{where}: counter args must be numeric")
    for tid in used_tids - named_tids:
        errors.append(f"tid {tid!r} has events but no thread_name metadata")
    return errors
