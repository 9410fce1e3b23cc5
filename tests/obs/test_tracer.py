"""Unit tests of the :class:`repro.obs.tracer.Tracer` record model."""

from repro.obs.tracer import (
    NULL_TRACER,
    TRACK_DIR_BASE,
    TRACK_NOC,
    TraceEvent,
    Tracer,
)


class FakeQueue:
    def __init__(self):
        self.now = 0


def make_tracer(**kw):
    tracer = Tracer(**kw)
    queue = FakeQueue()
    tracer.bind(queue)
    return tracer, queue


def test_null_tracer_is_none():
    # hot paths guard with `tracer is None`; the disabled tracer must
    # be that exact sentinel, not a null object
    assert NULL_TRACER is None


def test_span_open_then_close_records_duration():
    tracer, queue = make_tracer()
    tracer.sf_begin(0)
    (ev,) = tracer.spans("sf")
    assert ev.open and ev.dur is None
    queue.now = 40
    tracer.sf_end(0, extra=8)
    (ev,) = tracer.spans("sf")  # a view is a snapshot: query again
    assert ev.dur == 48 and not ev.open


def test_wf_episode_lifecycle():
    tracer, queue = make_tracer()
    tracer.wf_retire(0, fence_id=1, pending_stores=3)
    queue.now = 25
    tracer.wf_complete(0, fence_id=1, bs_lines=2)
    (ev,) = tracer.spans("wf")
    assert ev.dur == 25
    assert ev.args["pending_stores"] == 3 and ev.args["bs_lines"] == 2


def test_wf_trivial_is_a_zero_length_span():
    tracer, _ = make_tracer()
    tracer.wf_trivial(0)
    (ev,) = tracer.spans("wf")
    assert ev.dur == 0 and ev.args["trivial"]


def test_wf_unwind_all_closes_everything_and_counts():
    tracer, queue = make_tracer()
    tracer.wf_retire(1, 1, 2)
    tracer.wf_retire(1, 2, 4)
    tracer.wf_retire(0, 9, 1)  # other core: untouched
    queue.now = 10
    assert tracer.wf_unwind_all(1) == 2
    unwound = [ev for ev in tracer.spans("wf")
               if ev.args.get("outcome") == "recovery"]
    assert len(unwound) == 2
    assert all(ev.dur == 10 for ev in unwound)
    assert tracer.spans("wf")[2].open  # core 0's fence still open


def test_bounce_chain_accumulates_retries():
    tracer, queue = make_tracer()
    tracer.store_bounce(0, store_id=7, word=64, line=64,
                        retries=1, ordered=False)
    queue.now = 30
    tracer.store_bounce(0, store_id=7, word=64, line=64,
                        retries=2, ordered=True)
    queue.now = 55
    tracer.store_chain_end(0, store_id=7)
    (chain,) = tracer.spans("bounce_chain")
    assert chain.ts == 0 and chain.dur == 55
    assert chain.args["retries"] == 2
    assert chain.args["ordered"] is True
    assert chain.args["outcome"] == "merged"


def test_recovery_span_and_timeout_instant():
    tracer, queue = make_tracer()
    tracer.timeout_armed(2, delay=100)
    queue.now = 100
    tracer.recovery_begin(2, fence_id=3, checkpoint=17,
                          dropped_stores=4, bs_cleared=2, fences_unwound=1)
    queue.now = 160
    tracer.recovery_end(2, extra=5)
    (rec,) = tracer.spans("recovery")
    assert rec.dur == 65
    assert rec.args["dropped_stores"] == 4
    assert tracer.count("wplus_timeout") == 1


def test_dir_txn_uses_bank_track():
    tracer, queue = make_tracer()
    tracer.dir_begin(bank=3, txn_id=11, kind="GetX", line=128, requester=1)
    queue.now = 12
    tracer.dir_end(bank=3, txn_id=11, reply="DataE")
    (ev,) = tracer.spans("dir_txn")
    assert ev.track == TRACK_DIR_BASE + 3
    assert ev.dur == 12 and ev.args["reply"] == "DataE"


def test_noc_span_duration_is_latency():
    tracer, _ = make_tracer()
    tracer.noc_msg(src=0, dst=2, kind="GetS", nbytes=8, lat=9, retry=False)
    (ev,) = tracer.spans("msg")
    assert ev.track == TRACK_NOC and ev.dur == 9
    assert "retry" not in ev.args


def test_finalize_closes_open_spans_as_incomplete():
    tracer, queue = make_tracer()
    tracer.wf_retire(0, 1, 2)
    tracer.sf_begin(1)
    tracer.dir_begin(0, 5, "GetX", 64, 0)
    queue.now = 77
    tracer.finalize()
    assert not any(ev.open for ev in tracer.events)
    assert all(ev.args["incomplete"] and ev.dur == 77
               for ev in tracer.events)


def test_max_events_drops_new_records_but_closes_open_spans():
    tracer, queue = make_tracer(max_events=1)
    tracer.sf_begin(0)           # stored (event #1)
    tracer.wf_retire(0, 1, 2)    # over the cap: dropped
    tracer.rmw_retry(0, 64)      # dropped
    queue.now = 20
    tracer.sf_end(0)             # still closes the stored span
    assert len(tracer.events) == 1
    assert tracer.dropped == 2
    assert tracer.events[0].dur == 20


def test_query_helpers_filter_by_name_and_cat():
    tracer, _ = make_tracer()
    tracer.dir_bounce(0, 64, 1)
    tracer.rmw_retry(1, 64)
    tracer.noc_msg(0, 1, "GetS", 8, 5, False)
    assert tracer.count("bounce") == 1
    assert len(tracer.instants(cat="bounce")) == 1    # rmw_retry
    assert len(tracer.instants("bounce", cat="dir")) == 1
    assert len(tracer.spans(cat="noc")) == 1


def test_to_dict_omits_empty_fields():
    ev = TraceEvent("i", 0, "x", "y", ts=5)
    d = ev.to_dict()
    assert "dur" not in d and "args" not in d
    assert d["ts"] == 5


def test_tail_views_only_the_last_records():
    tracer, queue = make_tracer()
    for depth in range(5):
        queue.now = depth
        tracer.wb_depth(0, depth)
    assert [ev.args["value"] for ev in tracer.tail(2)] == [3, 4]
    assert len(tracer.tail(64)) == 5


def test_queries_match_free_form_names_per_record():
    # fault / sanitizer records carry their own names: the kind table
    # cannot answer a name query for them, the record must
    tracer, _ = make_tracer()
    tracer.fault(TRACK_NOC, "noc_delay", {"n": 1})
    tracer.fault(0, "dir_nack", {"n": 2})
    tracer.sanitizer_violation(None, "bs_leak", {"line": 64})
    assert tracer.count("fault_dir_nack") == 1
    assert [ev.args["n"] for ev in tracer.instants(cat="fault")] == [1, 2]
    (ev,) = tracer.instants("sanitizer_bs_leak")
    assert ev.cat == "sanitizer" and ev.args == {"line": 64}


def test_summary_counts_by_name_across_kinds():
    from repro.obs.summary import render_trace_summary

    tracer, _ = make_tracer()
    tracer.dir_begin(0, 1, "GetX", 64, 0)   # replied
    tracer.dir_begin(0, 2, "GetS", 128, 1)  # cut off below
    tracer.dir_end(0, 1, "DataE")
    tracer.noc_msg(0, 1, "GetS", 8, 5, False)
    tracer.noc_msg(0, 1, "GetS", 8, 5, True)
    tracer.fault(0, "dir_nack", {"n": 1})
    tracer.fault(0, "dir_nack", {"n": 2})
    tracer.fault(TRACK_NOC, "noc_delay", {"n": 1})
    tracer.finalize()
    rows = {tuple(line.split()) for line in
            render_trace_summary(tracer).splitlines()}
    assert ("dir", "dir_txn", "span", "2") in rows
    assert ("noc", "msg", "span", "2") in rows
    assert ("fault", "fault_dir_nack", "instant", "2") in rows
    assert ("fault", "fault_noc_delay", "instant", "1") in rows
