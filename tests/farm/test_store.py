"""FarmStore semantics: leases, exactly-once results, retry backoff,
poison-job quarantine, and gc.  Pure store tests — no simulations."""

import json
import os
import time

import pytest

from repro.common.errors import ConfigError
from repro.common.params import FenceDesign
from repro.farm import store as store_mod
from repro.farm.spec import CampaignSpec, JobSpec
from repro.farm.store import LEASE_EXPIRED, FarmStore


@pytest.fixture(autouse=True)
def _pinned_rev(monkeypatch):
    # content keys must not drift with the working tree's git rev
    monkeypatch.setenv("REPRO_CODE_REV", "test-rev")


def _spec(workloads=("fib",), designs=(FenceDesign.S_PLUS,), seeds=(1,)):
    return CampaignSpec.make("matrix", workloads, designs, seeds=seeds,
                             core_counts=[2], scale=0.06)


def _store(tmp_path, **kw):
    return FarmStore(str(tmp_path / "farm.sqlite"), **kw)


# ----------------------------------------------------------------------
# content addressing / submission
# ----------------------------------------------------------------------

def test_content_key_is_stable_and_config_sensitive():
    a = JobSpec.make("matrix", "fib", FenceDesign.S_PLUS, 1, cores=2)
    b = JobSpec.make("matrix", "fib", FenceDesign.S_PLUS, 1, cores=2)
    c = JobSpec.make("matrix", "fib", FenceDesign.S_PLUS, 1, cores=2,
                     config={"sanitize": "strict"})
    d = JobSpec.make("matrix", "fib", FenceDesign.S_PLUS, 1, cores=2,
                     rev="other-rev")
    assert a.content_key() == b.content_key()
    assert a.content_key() != c.content_key()  # config is identity
    assert a.content_key() != d.content_key()  # code rev is identity


def test_keys_and_json_are_pinned_and_derive_from_one_blob():
    """Both ids and both JSON forms come from one canonical blob per
    (frozen) instance; the bytes are those every existing store holds."""
    import dataclasses
    import hashlib

    from repro.farm.spec import canonical_json

    spec = _spec()
    (job,) = spec.expand()
    strict = JobSpec.make("matrix", "fib", FenceDesign.S_PLUS, 1, cores=2,
                          config={"sanitize": "strict"})
    assert spec.campaign_id() == "c5dd96826c7bf9ef1"
    assert spec.to_json() == (
        '{"code_rev":"test-rev","config":"{}","core_counts":[2],'
        '"designs":["S_PLUS"],"kind":"matrix","scale":0.06,"seeds":[1],'
        '"workloads":["fib"]}')
    assert job.content_key() == "ad998129146e31bf60f9c55db1fe0fa3a43359d7"
    assert job.to_json() == (
        '{"code_rev":"test-rev","config":"{}","cores":2,"design":"S_PLUS",'
        '"kind":"matrix","scale":0.06,"seed":1,"workload":"fib"}')
    assert strict.content_key() == \
        "a5ad67b28d23671243a2e33afc8c8ee64c892f4f"
    for obj, key in ((spec, spec.campaign_id()[1:]),
                     (job, job.content_key()),
                     (strict, strict.content_key())):
        blob = canonical_json(dataclasses.asdict(obj))  # the reference
        assert obj.to_json() == blob
        assert obj.to_json() is obj.to_json()  # serialised once
        assert hashlib.sha256(blob.encode()).hexdigest().startswith(key)
        # the cached blob is not a field: identity, equality and the
        # JSON round trip do not see it
        again = type(obj).from_json(obj.to_json())
        assert again == obj and hash(again) == hash(obj)
        assert again.to_json() == blob
        assert "_canonical" not in dataclasses.asdict(obj)


def test_expand_returns_a_fresh_list_over_jobs_built_once():
    spec = _spec(workloads=("fib", "Counter"),
                 designs=(FenceDesign.S_PLUS, FenceDesign.W_PLUS),
                 seeds=(1, 2))
    first = spec.expand()
    grid = [(j.workload, j.design, j.seed) for j in first]
    assert grid == [(w, d, s) for w in ("fib", "Counter")
                    for d in ("S_PLUS", "W_PLUS") for s in (1, 2)]
    first.reverse()
    first.pop()
    second = spec.expand()
    assert second is not first
    assert [(j.workload, j.design, j.seed) for j in second] == grid
    # the same job objects, so each content key is hashed once
    assert all(a is b for a, b in zip(spec.expand(), second))
    assert second[0].content_key() is second[0].content_key()


def test_design_identity_normalizes_names_and_values():
    by_enum = JobSpec.make("matrix", "fib", FenceDesign.S_PLUS, 1)
    by_name = JobSpec.make("matrix", "fib", "S_PLUS", 1)
    by_value = JobSpec.make("matrix", "fib", "S+", 1)
    assert by_enum == by_name == by_value
    assert by_enum.fence_design is FenceDesign.S_PLUS


def test_unknown_kind_is_rejected():
    with pytest.raises(ConfigError, match="unknown job kind"):
        JobSpec.make("mystery", "fib", FenceDesign.S_PLUS, 1)
    with pytest.raises(ConfigError, match="unknown job kind"):
        CampaignSpec.make("mystery", ["fib"], [FenceDesign.S_PLUS], [1])


def test_expand_order_is_deterministic():
    spec = _spec(workloads=("a", "b"), designs=(FenceDesign.S_PLUS,
                                                FenceDesign.W_PLUS),
                 seeds=(1, 2))
    keys = [j.content_key() for j in spec.expand()]
    assert keys == [j.content_key() for j in spec.expand()]
    assert len(set(keys)) == 8


def test_submit_is_idempotent(tmp_path):
    with _store(tmp_path) as store:
        cid, counts = store.submit_campaign(_spec(seeds=(1, 2)))
        assert counts == {"jobs": 2, "new": 2, "cached": 0, "existing": 0}
        cid2, counts2 = store.submit_campaign(_spec(seeds=(1, 2)))
        assert cid2 == cid
        assert counts2 == {"jobs": 2, "new": 0, "cached": 0, "existing": 2}
        assert store.status(cid)["total"] == 2


def test_submit_serves_cached_results_as_done(tmp_path):
    spec1 = _spec(seeds=(1,))
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(spec1)
        key, job = store.claim(cid, "w1", 30.0)
        store.complete(key, cid, "w1", {"v": 1})
        # a second campaign sharing that job is born satisfied
        spec2 = _spec(seeds=(1, 2))
        cid2, counts = store.submit_campaign(spec2)
        assert cid2 != cid
        assert counts == {"jobs": 2, "new": 1, "cached": 1, "existing": 0}
        assert store.status(cid2)["done"] == 1


def test_campaign_spec_round_trips(tmp_path):
    spec = _spec(seeds=(1, 2))
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(spec)
        assert store.campaign_spec(cid) == spec
        assert store.campaigns() == [(cid, spec)]
        with pytest.raises(ConfigError, match="unknown campaign"):
            store.campaign_spec("c-nope")


# ----------------------------------------------------------------------
# claiming and leases
# ----------------------------------------------------------------------

def test_claim_leases_one_job_at_a_time(tmp_path):
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec(seeds=(1, 2)))
        k1, j1 = store.claim(cid, "w1", 30.0)
        k2, j2 = store.claim(cid, "w2", 30.0)
        assert k1 != k2
        assert store.claim(cid, "w3", 30.0) is None  # both leased
        assert store.status(cid)["leased"] == 2


def test_expired_lease_is_reclaimed_and_charged_to_the_owner(tmp_path):
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        key, _ = store.claim(cid, "w1", lease_secs=0.0)  # expires now
        reclaimed = store.claim(cid, "w2", 30.0,
                                now=time.time() + 0.001)
        assert reclaimed is not None and reclaimed[0] == key
        row = store._one(
            "SELECT failed_workers, attempts FROM jobs WHERE key=?", (key,))
        assert json.loads(row[0]) == ["w1"]  # evidence against w1
        assert row[1] == 2


def test_live_lease_is_not_stealable(tmp_path):
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        store.claim(cid, "w1", lease_secs=30.0)
        assert store.claim(cid, "w2", 30.0) is None


def test_heartbeat_extends_only_the_owners_lease(tmp_path):
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        key, _ = store.claim(cid, "w1", lease_secs=0.5)
        assert store.heartbeat(key, cid, "w1", lease_secs=60.0)
        assert not store.heartbeat(key, cid, "w2", lease_secs=60.0)
        # the renewed lease now outlives the original expiry
        assert store.claim(cid, "w2", 30.0,
                           now=time.time() + 1.0) is None


def test_claim_completes_queued_job_whose_cache_filled_in(tmp_path):
    spec_a = _spec(seeds=(1,))
    spec_b = CampaignSpec.make("matrix", ["fib"], [FenceDesign.S_PLUS],
                               seeds=[1, 2], core_counts=[2], scale=0.06)
    with _store(tmp_path) as store:
        cid_a, _ = store.submit_campaign(spec_a)
        cid_b, _ = store.submit_campaign(spec_b)
        key, _ = store.claim(cid_a, "w1", 30.0)
        store.complete(key, cid_a, "w1", {"v": 1})
        # campaign B's copy of seed-1 was pending; claiming from B must
        # skip it (serve the cache) and lease the seed-2 job instead
        k2, job2 = store.claim(cid_b, "w2", 30.0)
        assert k2 != key and job2.seed == 2
        assert store.status(cid_b)["done"] == 1


# ----------------------------------------------------------------------
# exactly-once completion
# ----------------------------------------------------------------------

def test_duplicate_completion_keeps_first_row(tmp_path):
    """Two workers finish the same job (expired lease): one row, bit
    for bit, plus an audit counter — never two rows."""
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        key, _ = store.claim(cid, "w1", lease_secs=0.0)
        store.claim(cid, "w2", 30.0, now=time.time() + 0.001)
        row = {"v": 42, "nested": {"a": [1, 2]}}
        assert store.complete(key, cid, "w2", row) == "inserted"
        assert store.complete(key, cid, "w1", dict(row)) == "duplicate"
        assert store.rows(cid) == {key: row}
        assert store.duplicates_total() == 1
        assert store.result_count() == 1


def test_mismatched_duplicate_is_flagged_not_absorbed(tmp_path):
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        key, _ = store.claim(cid, "w1", lease_secs=0.0)
        store.claim(cid, "w2", 30.0, now=time.time() + 0.001)
        store.complete(key, cid, "w2", {"v": 1})
        assert store.complete(key, cid, "w1", {"v": 2}) == "mismatch"
        assert store.rows(cid) == {key: {"v": 1}}  # first writer wins
        errors = [e for (e,) in store._conn.execute(
            "SELECT error FROM failures WHERE key=?", (key,))]
        assert any("result-mismatch" in e for e in errors)


def test_completion_marks_the_key_done_across_campaigns(tmp_path):
    spec_a = _spec(seeds=(1,))
    spec_b = _spec(seeds=(1, 2))
    with _store(tmp_path) as store:
        cid_a, _ = store.submit_campaign(spec_a)
        cid_b, _ = store.submit_campaign(spec_b)
        key, _ = store.claim(cid_a, "w1", 30.0)
        store.complete(key, cid_a, "w1", {"v": 1})
        assert store.status(cid_b)["done"] == 1
        assert store.campaign_done(cid_a)
        assert not store.campaign_done(cid_b)


# ----------------------------------------------------------------------
# failure, backoff, quarantine
# ----------------------------------------------------------------------

def test_failed_job_backs_off_exponentially(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod, "BACKOFF_BASE", 10.0)
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        key, _ = store.claim(cid, "w1", 30.0)
        assert store.fail(key, cid, "w1", "boom",
                          quarantine_after=99) == "pending"
        # backoff gate: not claimable right now...
        assert store.claim(cid, "w2", 30.0) is None
        # ...but claimable past the gate
        assert store.claim(cid, "w2", 30.0,
                           now=time.time() + 11.0) is not None
        nb1 = store._one("SELECT not_before FROM jobs WHERE key=?",
                         (key,))[0]
        store.fail(key, cid, "w2", "boom", quarantine_after=99)
        nb2 = store._one("SELECT not_before FROM jobs WHERE key=?",
                         (key,))[0]
        assert nb2 - nb1 > 5.0  # attempt 2 backed off ~2x attempt 1


def test_backoff_is_capped(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod, "BACKOFF_BASE", 0.25)
    monkeypatch.setattr(store_mod, "BACKOFF_CAP", 3.0)
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        key, _ = store.claim(cid, "w1", 30.0)
        t0 = time.time()
        store._conn.execute("UPDATE jobs SET attempts=50 WHERE key=?",
                            (key,))
        store.fail(key, cid, "w1", "boom", quarantine_after=99)
        nb = store._one("SELECT not_before FROM jobs WHERE key=?",
                        (key,))[0]
        assert nb - t0 < 4.0  # capped, not 0.25 * 2**49


def test_quarantine_after_distinct_worker_failures(tmp_path):
    """Failures from the *same* worker never quarantine; N distinct
    workers do, and a diagnostic bundle is written."""
    diag = tmp_path / "diag"
    with _store(tmp_path, diag_dir=str(diag)) as store:
        cid, _ = store.submit_campaign(_spec())
        for attempt in range(5):  # one flaky worker, many failures
            key, _ = store.claim(cid, "w1", 30.0,
                                 now=time.time() + 100.0 * attempt)
            assert store.fail(key, cid, "w1", f"boom {attempt}",
                              quarantine_after=3) == "pending"
        far = time.time() + 1000.0
        key, _ = store.claim(cid, "w2", 30.0, now=far)
        assert store.fail(key, cid, "w2", "boom w2",
                          quarantine_after=3) == "pending"
        key, _ = store.claim(cid, "w3", 30.0, now=far + 100.0)
        assert store.fail(key, cid, "w3", "boom w3",
                          quarantine_after=3) == "quarantined"

        assert store.status(cid)["quarantined"] == 1
        assert store.campaign_done(cid)  # quarantine is terminal
        assert store.claim(cid, "w4", 30.0, now=far + 200.0) is None

        (q,) = store.quarantined(cid)
        assert set(q["failed_workers"]) == {"w1", "w2", "w3"}
        bundles = list(diag.glob("quarantine_*.json"))
        assert len(bundles) == 1
        bundle = json.loads(bundles[0].read_text())
        assert bundle["kind"] == "farm-quarantine"
        assert bundle["spec"]["workload"] == "fib"
        assert sorted(bundle["distinct_failed_workers"]) == ["w1", "w2", "w3"]
        assert len(bundle["failures"]) == 7
        assert bundle["last_error"] == "boom w3"


def test_expired_leases_count_toward_quarantine(tmp_path):
    """Three distinct workers dying mid-job (lease expiry, no explicit
    fail call) quarantine the job at the next claim."""
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        now = time.time()
        for i, worker in enumerate(("w1", "w2", "w3")):
            claimed = store.claim(cid, worker, lease_secs=0.0,
                                  now=now + i)
            assert claimed is not None
        # w1..w3 all died; the 4th claim attempt quarantines instead
        assert store.claim(cid, "w4", 30.0, now=now + 10.0) is None
        assert store.status(cid)["quarantined"] == 1


def test_fail_unknown_job_raises(tmp_path):
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        with pytest.raises(ConfigError, match="unknown job"):
            store.fail("nope", cid, "w1", "boom")


# ----------------------------------------------------------------------
# gc
# ----------------------------------------------------------------------

def test_gc_drops_done_campaigns_and_prunes_the_cache(tmp_path):
    spec_a = _spec(seeds=(1,))
    spec_b = _spec(seeds=(2,))
    with _store(tmp_path) as store:
        cid_a, _ = store.submit_campaign(spec_a)
        cid_b, _ = store.submit_campaign(spec_b)
        key_a, _ = store.claim(cid_a, "w1", 30.0)
        store.complete(key_a, cid_a, "w1", {"v": 1})
        store.claim(cid_b, "w2", lease_secs=0.0)  # expired, unfinished
        summary = store.gc()
        assert summary["campaigns_dropped"] == 1  # A done, B kept
        assert [cid for cid, _ in store.campaigns()] == [cid_b]
        assert store.result_count() == 1  # cache survives by default
        summary2 = store.gc(prune_cache=True)
        assert summary2["results_pruned"] == 1  # A's row, unreferenced


def test_gc_leaves_an_expired_lease_for_claim_to_charge(tmp_path):
    """A dead worker's expired lease is evidence for quarantine: gc
    leaves it, so the next claim still charges its owner."""
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(_spec())
        key, _ = store.claim(cid, "w2", lease_secs=0.0)  # w2 dies
        store.gc()
        assert store.claim(cid, "w3", 30.0)[0] == key
        assert store._conn.execute(
            "SELECT worker, error FROM failures WHERE key=?",
            (key,)).fetchall() == [("w2", LEASE_EXPIRED)]
        (failed,) = store._one(
            "SELECT failed_workers FROM jobs WHERE key=?", (key,))
        assert json.loads(failed) == ["w2"]


def test_gc_prune_keeps_referenced_cache_rows(tmp_path):
    spec = _spec(seeds=(1, 2))
    with _store(tmp_path) as store:
        cid, _ = store.submit_campaign(spec)
        key, _ = store.claim(cid, "w1", 30.0)
        store.complete(key, cid, "w1", {"v": 1})
        summary = store.gc(prune_cache=True)  # campaign unfinished
        assert summary["campaigns_dropped"] == 0
        assert summary["results_pruned"] == 0
        assert store.result_count() == 1
