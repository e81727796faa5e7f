"""Tests for the coalescing priority scheduler."""

import threading

import pytest

from repro.service.jobs import JobSpec
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import QueueFull, Scheduler, UnknownJob


def _spec(payload=None, **kwargs):
    options = {"payload": payload}
    options.update(kwargs.pop("options", {}))
    return JobSpec(kind="selftest", options=options, **kwargs)


def test_fifo_within_priority():
    scheduler = Scheduler(max_depth=16)
    jobs = [scheduler.submit(_spec(i))[0] for i in range(4)]
    popped = [scheduler.next_job(timeout=0.1) for _ in range(4)]
    assert popped == jobs


def test_priority_orders_before_fifo():
    scheduler = Scheduler(max_depth=16)
    low = scheduler.submit(_spec("low", priority=0))[0]
    high = scheduler.submit(_spec("high", priority=5))[0]
    mid = scheduler.submit(_spec("mid", priority=2))[0]
    order = [scheduler.next_job(timeout=0.1) for _ in range(3)]
    assert order == [high, mid, low]


def test_backpressure_raises_queue_full():
    metrics = ServiceMetrics()
    scheduler = Scheduler(max_depth=2, metrics=metrics)
    scheduler.submit(_spec(1))
    scheduler.submit(_spec(2))
    with pytest.raises(QueueFull):
        scheduler.submit(_spec(3))
    assert metrics.counter("rejected") == 1
    # Duplicates of queued work are never rejected: they add no load.
    job, created = scheduler.submit(_spec(1))
    assert not created and job.submit_count == 2


def test_coalescing_attaches_and_memory_hit_short_circuits():
    metrics = ServiceMetrics()
    scheduler = Scheduler(max_depth=16, metrics=metrics)
    first, created_first = scheduler.submit(_spec("dup"))
    second, created_second = scheduler.submit(_spec("dup"))
    assert created_first and not created_second
    assert first is second and first.submit_count == 2
    assert metrics.counter("coalesced") == 1
    # Complete it; a later duplicate is served from memory, still not created.
    job = scheduler.next_job(timeout=0.1)
    scheduler.complete(job, {"kind": "selftest", "payload": "dup"})
    third, created_third = scheduler.submit(_spec("dup"))
    assert third is first and not created_third
    assert third.state == "done"
    assert metrics.counter("memory_hits") == 1
    assert metrics.counter("submitted") == 3  # every submission counted once


def test_store_short_circuit_across_scheduler_instances(tmp_path):
    store_root = str(tmp_path / "store")
    warm_payload = {"kind": "selftest", "action": "ok", "payload": "warm"}
    first = Scheduler(max_depth=4, store=store_root)
    job, created = first.submit(_spec("warm"))
    assert created
    first.complete(first.next_job(timeout=0.1), warm_payload)
    # A brand-new scheduler over the same store never queues the duplicate.
    second = Scheduler(max_depth=4, store=store_root)
    cached, created = second.submit(_spec("warm"))
    assert not created
    assert cached.state == "done"
    assert cached.source == "store"
    assert cached.result == warm_payload
    assert second.metrics.counter("store_hits") == 1
    assert second.depth() == 0


def test_cancel_queued_job_frees_capacity():
    scheduler = Scheduler(max_depth=1)
    job, _ = scheduler.submit(_spec("victim"))
    assert scheduler.cancel(job.job_id)
    assert job.state == "cancelled"
    # The slot is free again and the cancelled entry is skipped on pop.
    replacement, created = scheduler.submit(_spec("replacement"))
    assert created
    assert scheduler.next_job(timeout=0.1) is replacement


def test_cancel_running_sets_request_flag():
    scheduler = Scheduler(max_depth=4)
    job, _ = scheduler.submit(_spec("running"))
    popped = scheduler.next_job(timeout=0.1)
    assert popped is job and job.state == "running"
    assert not scheduler.cancel(job.job_id)
    assert job.cancel_requested


def test_resubmission_after_failure_requeues():
    scheduler = Scheduler(max_depth=4)
    job, _ = scheduler.submit(_spec("flaky"))
    scheduler.fail(scheduler.next_job(timeout=0.1), "boom")
    assert job.state == "failed"
    retry, created = scheduler.submit(_spec("flaky"))
    assert created and retry is not job
    assert retry.job_id == job.job_id  # deterministic ids survive retries
    assert scheduler.get(retry.job_id) is retry


def test_terminal_job_retention_is_bounded(tmp_path):
    store_root = str(tmp_path / "store")
    scheduler = Scheduler(max_depth=16, store=store_root, retain_jobs=2)
    jobs = []
    for index in range(4):
        job, _ = scheduler.submit(_spec(index))
        scheduler.complete(
            scheduler.next_job(timeout=0.1), {"kind": "selftest", "payload": index}
        )
        jobs.append(job)
    # Only the two newest terminal jobs remain tracked in memory ...
    assert scheduler.gauges()["jobs_tracked"] == 2
    with pytest.raises(UnknownJob):
        scheduler.get(jobs[0].job_id)
    assert scheduler.get(jobs[3].job_id) is jobs[3]
    # ... but an evicted result is still served from the artifact store.
    revived, created = scheduler.submit(_spec(0))
    assert not created and revived.source == "store"
    assert revived.result == {"kind": "selftest", "payload": 0}


def test_reopen_after_close_serves_again():
    scheduler = Scheduler(max_depth=4)
    scheduler.close()
    assert scheduler.next_job(timeout=0.01) is None
    scheduler.reopen()
    job, _ = scheduler.submit(_spec("again"))
    assert scheduler.next_job(timeout=0.1) is job


def test_unknown_job_raises():
    scheduler = Scheduler(max_depth=4)
    with pytest.raises(UnknownJob):
        scheduler.get("optimize-deadbeef")


def test_latency_observation_and_gauges():
    scheduler = Scheduler(max_depth=4)
    scheduler.submit(_spec("timed"))
    gauges = scheduler.gauges()
    assert gauges["queue_depth"] == 1 and gauges["running"] == 0
    job = scheduler.next_job(timeout=0.1)
    assert scheduler.gauges()["running"] == 1
    scheduler.complete(job, {"kind": "selftest"})
    snapshot = scheduler.metrics.snapshot(scheduler.gauges())
    assert snapshot["latency"]["total_seconds"]["count"] == 1
    assert snapshot["gauges"]["running"] == 0


def test_concurrent_duplicate_submissions_create_one_job():
    scheduler = Scheduler(max_depth=64)
    results = []
    barrier = threading.Barrier(8)

    def submit():
        barrier.wait()
        results.append(scheduler.submit(_spec("storm")))

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    jobs = {id(job) for job, _ in results}
    assert len(jobs) == 1
    assert sum(1 for _, created in results if created) == 1
    job = results[0][0]
    assert job.submit_count == 8


def test_close_unblocks_workers():
    scheduler = Scheduler(max_depth=4)
    seen = []

    def drain():
        seen.append(scheduler.next_job(timeout=5.0))

    thread = threading.Thread(target=drain)
    thread.start()
    scheduler.close()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert seen == [None]


def test_duplicate_submit_neither_copies_nor_fingerprints_the_design(monkeypatch):
    from repro.aig.aig import Aig
    from repro.store import fingerprint

    scheduler = Scheduler(max_depth=4)
    spec = JobSpec(kind="optimize", design="b08", options={"script": "rw; b"})
    first, created = scheduler.submit(spec)
    assert created
    calls = []
    original_copy = Aig.copy_with_mapping
    original_hash = fingerprint._structural_hash

    def copying(self, *args, **kwargs):
        calls.append("copy")
        return original_copy(self, *args, **kwargs)

    def hashing(aig):
        calls.append("hash")
        return original_hash(aig)

    monkeypatch.setattr(Aig, "copy_with_mapping", copying)
    monkeypatch.setattr(fingerprint, "_structural_hash", hashing)
    duplicate = JobSpec(kind="optimize", design="b08", options={"script": "rw; b"})
    second, created = scheduler.submit(duplicate)
    assert second is first and not created
    assert calls == []


def test_rewritten_netlist_gets_a_new_key(tmp_path):
    from repro.circuits.benchmarks import load_benchmark
    from repro.engine.engine import save_design

    path = str(tmp_path / "design.aag")
    save_design(load_benchmark("b08"), path)
    scheduler = Scheduler(max_depth=4)
    spec = JobSpec(kind="optimize", design=path, options={"script": "rw"})
    first, created = scheduler.submit(spec)
    assert created
    assert scheduler.submit(spec) == (first, False)
    save_design(load_benchmark("b09"), path)
    second, created = scheduler.submit(spec)
    assert created and second.job_id != first.job_id
