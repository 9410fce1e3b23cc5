"""Model property of the trace recorder.

Random hook sequences — episode begin/end/abort/unwind/bounce/finalize
interleavings over two cores, with and without a ``max_events`` cap —
run against the real :class:`~repro.obs.tracer.Tracer` and against a
deliberately naive model that keeps one dict per event.  The tracer
stores flat records and builds its views on request; the model is what
those views must say:

* ``len(events)`` and ``dropped`` agree, cap or no cap;
* every stored open span is closed by its end hook, even past the cap;
* after ``finalize()`` no view is open;
* ``[ev.to_dict() for ev in events]`` is the model's event list, and the
  exporter's JSONL lines are, byte for byte, ``json.dumps`` of it —
  template path and encoder path alike; the Chrome trace validates.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import TRACK_DIR_BASE, TRACK_NOC, TRACK_SANITIZER, Tracer


class Clock:
    now = 0


class Model:
    """One dict per event, appended when the hook fires, mutated by the
    hook that closes it — the record model the tracer had before it
    went flat, minus everything clever."""

    def __init__(self, cap):
        self.cap, self.events, self.dropped, self.now = cap, [], 0, 0
        self.open = {}  # episode key -> stored event
        self.live = set()  # episodes begun and not ended, stored or not

    def emit(self, ph, track, name, cat, ts, dur, args=None, key=None):
        if self.cap is not None and len(self.events) >= self.cap:
            self.dropped += 1
            return
        ev = dict(ph=ph, track=track, name=name, cat=cat, ts=ts, dur=dur,
                  args=args)
        self.events.append(ev)
        if key is not None:
            self.open[key] = ev

    def begin(self, key, track, name, cat, args):
        """False — skip the op — where the machine could not call the
        hook: it never begins an episode that is already running."""
        if key in self.live:
            return False
        self.live.add(key)
        self.emit("X", track, name, cat, self.now, None, args, key=key)

    def close(self, key, tail=0, **args):
        self.live.discard(key)
        ev = self.open.pop(key, None)
        if ev is not None:
            ev["dur"] = (self.now - ev["ts"]) + tail
            ev["args"] = dict(ev["args"] or (), **args)

    def instant(self, track, name, cat, args=None):
        self.emit("i", track, name, cat, self.now, 0, args)

    # -- one method per hook under test, same parameter names ----------

    def tick(self, n):
        self.now += n

    def sf_begin(self, core, demoted):
        return self.begin(("sf", core), core, "sf", "fence",
                          {"demoted": True} if demoted else None)

    def sf_end(self, core, extra):
        self.close(("sf", core), extra, extra=extra)

    def sf_abort(self, core):
        self.close(("sf", core), outcome="recovery")

    def wf_retire(self, core, fence_id, pending_stores):
        return self.begin(
            ("wf", core, fence_id), core, "wf", "fence",
            {"fence_id": fence_id, "pending_stores": pending_stores})

    def wf_trivial(self, core):
        self.emit("X", core, "wf", "fence", self.now, 0, {"trivial": True})

    def wf_convert(self, core, fence_id):
        ev = self.open.get(("wf", core, fence_id))
        if ev is not None:
            ev["args"]["converted"] = True

    def wf_complete(self, core, fence_id, bs_lines):
        self.close(("wf", core, fence_id), bs_lines=bs_lines)

    def wf_unwind_all(self, core):
        for key in sorted(k for k in self.live if k[:2] == ("wf", core)):
            self.close(key, outcome="recovery")

    def store_bounce(self, core, store_id, word, line, retries, ordered):
        ev = self.open.get(("chain", core, store_id))
        if ev is None:
            self.emit("X", core, "bounce_chain", "bounce", self.now, None,
                      {"store_id": store_id, "word": word, "line": line,
                       "retries": retries, "ordered": ordered},
                      key=("chain", core, store_id))
        else:
            ev["args"]["retries"] = retries
            if ordered:
                ev["args"]["ordered"] = True

    def store_chain_end(self, core, store_id):
        self.close(("chain", core, store_id), outcome="merged")

    def recovery_begin(self, core, fence_id, checkpoint, dropped_stores,
                       bs_cleared, fences_unwound):
        return self.begin(
            ("rec", core), core, "recovery", "recovery",
            {"fence_id": fence_id, "checkpoint": checkpoint,
             "dropped_stores": dropped_stores, "bs_cleared": bs_cleared,
             "fences_unwound": fences_unwound})

    def recovery_end(self, core, extra):
        self.close(("rec", core), extra, extra=extra)

    def dir_begin(self, bank, txn_id, kind, line, requester):
        return self.begin(
            ("dir", bank, txn_id), TRACK_DIR_BASE + bank, "dir_txn", "dir",
            {"txn_id": txn_id, "kind": kind, "line": line,
             "requester": requester})

    def dir_end(self, bank, txn_id, reply):
        self.close(("dir", bank, txn_id), reply=reply)

    def dir_order(self, bank, line, requester, conditional):
        self.instant(TRACK_DIR_BASE + bank,
                     "cond_order" if conditional else "order", "dir",
                     {"line": line, "requester": requester})

    def dir_putm(self, bank, line, requester):
        self.instant(TRACK_DIR_BASE + bank, "putm", "dir",
                     {"line": line, "requester": requester})

    def noc_msg(self, src, dst, kind, nbytes, lat, retry):
        args = {"src": src, "dst": dst, "kind": kind, "bytes": nbytes}
        if retry:
            args["retry"] = True
        self.emit("X", TRACK_NOC, "msg", "noc", self.now, lat, args)

    def wb_depth(self, core, depth):
        self.emit("C", core, "wb_depth", "wb", self.now, 0, {"value": depth})

    def mem_stall(self, core, t0, charge):
        self.emit("X", core, "mem_stall", "stall", t0, self.now - t0,
                  {"charge": charge})

    def wb_full_stall(self, core, t0):
        self.emit("X", core, "wb_full_stall", "stall", t0, self.now - t0)

    def l1_miss(self, core, line, kind, t0, outcome):
        self.emit("X", core, "l1_miss", "l1", t0, self.now - t0,
                  {"line": line, "kind": kind, "outcome": outcome})

    def writeback(self, core, line, keep_sharer):
        self.instant(core, "writeback", "l1",
                     {"line": line, "keep_sharer": keep_sharer})

    def order_promotion(self, core, count, conditional):
        self.instant(core, "order_promotion", "fence",
                     {"count": count, "conditional": conditional})

    def lmf_decision(self, core, fast):
        self.instant(core, "lmf_fast" if fast else "lmf_fallback", "fence")

    def fault(self, track, site, args):
        self.instant(track, f"fault_{site}", "fault", args)

    def sanitizer_violation(self, core, invariant, args):
        self.instant(TRACK_SANITIZER if core is None else core,
                     f"sanitizer_{invariant}", "sanitizer", args)

    def finalize(self):
        for key in list(self.open):
            self.close(key, incomplete=True)
        self.live.clear()

    def dicts(self):
        """The events as ``TraceEvent.to_dict()`` renders them."""
        return [{k: v for k, v in ev.items()
                 if not (k == "dur" and v is None)
                 and not (k == "args" and not v)} for ev in self.events]


cores = st.integers(0, 1)
ids = st.integers(1, 3)
small = st.integers(0, 9)
extras = st.sampled_from([0, 4, 2.5])
kinds = st.sampled_from(["GetS", "GetX", "Order"])
free_args = st.none() | st.dictionaries(
    st.sampled_from(["n", "line", "why"]),
    st.integers(0, 99) | st.text(max_size=4) | st.lists(small, max_size=2),
    max_size=3)


def op(name, **params):
    return st.tuples(st.just(name), st.fixed_dictionaries(params))


ops = st.lists(st.one_of(
    op("tick", n=st.integers(1, 40)),
    op("sf_begin", core=cores, demoted=st.booleans()),
    op("sf_end", core=cores, extra=extras),
    op("sf_abort", core=cores),
    op("wf_retire", core=cores, fence_id=ids, pending_stores=small),
    op("wf_trivial", core=cores),
    op("wf_convert", core=cores, fence_id=ids),
    op("wf_complete", core=cores, fence_id=ids, bs_lines=small),
    op("wf_unwind_all", core=cores),
    op("store_bounce", core=cores, store_id=ids, word=small, line=small,
       retries=ids, ordered=st.booleans()),
    op("store_chain_end", core=cores, store_id=ids),
    op("recovery_begin", core=cores, fence_id=ids,
       checkpoint=st.none() | small, dropped_stores=small, bs_cleared=small,
       fences_unwound=small),
    op("recovery_end", core=cores, extra=extras),
    op("dir_begin", bank=cores, txn_id=ids, kind=kinds, line=small,
       requester=cores),
    op("dir_end", bank=cores, txn_id=ids,
       reply=st.sampled_from(["DataE", "Ack"])),
    op("dir_order", bank=cores, line=small, requester=cores,
       conditional=st.booleans()),
    op("dir_putm", bank=cores, line=small, requester=cores),
    op("noc_msg", src=cores, dst=cores, kind=kinds, nbytes=small, lat=small,
       retry=st.booleans()),
    op("wb_depth", core=cores, depth=small),
    op("mem_stall", core=cores, t0=st.just(0),
       charge=st.floats(0, 500, allow_nan=False)),
    op("wb_full_stall", core=cores, t0=st.just(0)),
    op("l1_miss", core=cores, line=small, kind=kinds, t0=st.just(0),
       outcome=st.sampled_from(["filled", "merged", "bounced"])),
    op("writeback", core=cores, line=small, keep_sharer=st.booleans()),
    op("order_promotion", core=cores, count=ids, conditional=st.booleans()),
    op("lmf_decision", core=cores, fast=st.booleans()),
    op("fault", track=st.sampled_from([0, 1, TRACK_DIR_BASE, TRACK_NOC]),
       site=st.sampled_from(["dir_nack", "noc_delay"]), args=free_args),
    op("sanitizer_violation", core=st.none() | cores,
       invariant=st.sampled_from(["bs_leak", "wb_order"]), args=free_args),
    op("finalize"),
), max_size=60)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("trace") / "t.jsonl")


def _exported(tracer, path):
    write_jsonl(path, tracer)
    with open(path) as fh:
        return fh.read().splitlines()[1:]  # minus the meta header


@settings(max_examples=150, deadline=None)
@given(ops=ops, cap=st.none() | st.integers(0, 12))
def test_tracer_agrees_with_the_naive_model(path, ops, cap):
    tracer, model, clock = Tracer(max_events=cap), Model(cap), Clock()
    tracer.bind(clock)
    for name, params in ops:
        if getattr(model, name)(**params) is False:
            continue
        if name == "tick":
            clock.now = model.now
        else:
            getattr(tracer, name)(**params)

    def check():
        views = tracer.events
        assert len(views) == len(model.events)
        assert tracer.dropped == model.dropped
        dicts = [ev.to_dict() for ev in views]
        assert dicts == model.dicts()
        # open exactly where the model still waits for an end hook
        assert sum(ev.open for ev in views) == len(model.open)
        # the model's dicts, not the views': key order is pinned too
        assert _exported(tracer, path) == [
            json.dumps({"type": "event", **d}, separators=(",", ":"))
            for d in model.dicts()]
        assert validate_chrome_trace(to_chrome_trace(tracer)) == []
        assert len(tracer.spans()) + len(tracer.instants()) + len(
            [ev for ev in views if ev.ph == "C"]) == len(views)
        for name in {ev["name"] for ev in model.events}:
            assert tracer.count(name) == sum(
                ev["name"] == name for ev in model.events)
        assert [ev.to_dict() for ev in tracer.tail(3)] == dicts[-3:]

    check()  # mid-run: spans may still be open
    model.finalize()
    tracer.finalize()
    check()
    assert not any(ev.open for ev in tracer.events)
