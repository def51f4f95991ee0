"""The shared job-control plane over both of its backends.

:class:`repro.service.control.JobControl` is the admission path and job
table of the single-host :class:`Scheduler` and of the fleet's
:class:`FleetCoordinator`.  Every admission outcome must therefore look
the same from either one - status, error, ``Retry-After`` and counters -
apart from the backend's metric prefix.  Neither backend runs a job
here: the scheduler is never started (admitted jobs wait in its
backlog) and the coordinator's worker I/O is stubbed to hang, so every
case is decided by admission alone.
"""

import asyncio
import threading

import pytest

from repro.fleet.coordinator import FleetConfig, FleetCoordinator
from repro.service import jobs as jobmodel
from repro.service.control import EVICT_EVERY, RETRY_AFTER_MAX, \
    TERMINAL_KEEP
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.store import ResultStore


def payload(seed=1):
    return {"kind": "simulate", "benchmarks": ["gzip"],
            "configs": ["RR 256"], "measure": 100, "warmup": 0,
            "seed": seed}


def make_scheduler(store=None, **knobs):
    return Scheduler(SchedulerConfig(workers=1, **knobs), store=store)


def make_coordinator(store=None, **knobs):
    coordinator = FleetCoordinator(FleetConfig(**knobs), store=store,
                                   workers=["http://n0:1"])

    async def hang(job, node, deadline):
        coordinator._to_running(job)
        await asyncio.Event().wait()

    coordinator._forward_and_wait = hang
    return coordinator


#: (factory, metric prefix, store-hit counter) per backend.
BACKENDS = {
    "scheduler": (make_scheduler, "", "result_cache_hits_total"),
    "coordinator": (make_coordinator, "fleet_", "fleet_store_hits_total"),
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]


def run(control, scenario):
    """Run ``scenario(control)`` on a loop, then tear the backend down."""

    async def main():
        try:
            return scenario(control)
        finally:
            await control.shutdown(drain=False)

    return asyncio.run(main())


class TestAdmissionContract:
    def test_quota_shed(self, backend):
        factory, _, _ = backend
        control = factory(per_client_quota=1)

        def scenario(control):
            assert control.submit(payload(1), client="hog").status == 202
            return control.submit(payload(2), client="hog")

        shed = run(control, scenario)
        assert shed.status == 429 and shed.job is None
        assert shed.error == ("client 'hog' already has 1 active job(s) "
                              "(quota 1)")
        assert shed.retry_after == 1
        counters = control.registry.counters
        assert counters["admission_shed_total"] == 1
        assert counters["quota_shed_total"] == 1
        assert "backlog_shed_total" not in counters

    def test_backlog_shed(self, backend):
        factory, _, _ = backend
        control = factory(max_backlog=1)

        def scenario(control):
            assert control.submit(payload(1), client="a").status == 202
            return control.submit(payload(2), client="b")

        shed = run(control, scenario)
        assert shed.status == 429 and shed.job is None
        assert shed.error == "backlog full (1 job(s) queued, bound 1)"
        assert shed.retry_after == 1
        counters = control.registry.counters
        assert counters["admission_shed_total"] == 1
        assert counters["backlog_shed_total"] == 1
        assert "quota_shed_total" not in counters

    def test_inflight_dedup(self, backend):
        factory, prefix, _ = backend
        control = factory()

        def scenario(control):
            return (control.submit(payload(), client="a"),
                    control.submit(payload(), client="b"))

        first, second = run(control, scenario)
        assert first.status == 202 and not first.deduped
        assert second.status == 202 and second.deduped
        assert second.job is first.job and first.job.deduped == 1
        counters = control.registry.counters
        assert counters["dedup_hits_total"] == 1
        assert counters[f"{prefix}jobs_submitted_total"] == 1

    def test_store_short_circuit(self, backend, tmp_path):
        factory, prefix, store_hits = backend
        key = jobmodel.job_key(jobmodel.parse_request(payload()))
        store = ResultStore(str(tmp_path), ttl_seconds=None)
        store.put(key, {"cells": ["stored"]})
        control = factory(store=store)

        hit = run(control, lambda control: control.submit(payload(), "a"))
        assert hit.status == 200 and hit.cached
        assert hit.job.state == jobmodel.DONE
        assert hit.job.result == {"cells": ["stored"]}
        assert control.counts()[jobmodel.DONE] == 1
        assert control._client_active == {}
        counters = control.registry.counters
        assert counters[store_hits] == 1
        assert counters[f"{prefix}jobs_done_total"] == 1
        assert f"{prefix}jobs_submitted_total" not in counters

    def test_invalid_payload_is_400(self, backend):
        factory, _, _ = backend
        control = factory()

        bad = run(control, lambda control: control.submit({"kind": "nope"}))
        assert bad.status == 400 and bad.job is None
        assert bad.retry_after is None
        assert "nope" in bad.error
        assert control.registry.counters["jobs_rejected_total"] == 1
        assert "admission_shed_total" not in control.registry.counters

    def test_draining_is_503(self, backend):
        factory, _, _ = backend
        control = factory()

        async def main():
            await control.shutdown(drain=False)
            return control.submit(payload(), client="a")

        late = asyncio.run(main())
        assert late.status == 503 and late.job is None
        assert late.error == "server is draining"
        assert late.retry_after == RETRY_AFTER_MAX
        assert control.registry.counters["admission_shed_total"] == 1


class TestJobTable:
    def test_terminal_jobs_are_bounded_and_still_counted(
            self, backend, tmp_path):
        factory, _, _ = backend
        store = ResultStore(str(tmp_path), ttl_seconds=None)
        submissions = TERMINAL_KEEP + 100
        for seed in range(submissions):
            store.put(jobmodel.job_key(
                jobmodel.parse_request(payload(seed))), {"seed": seed})
        control = factory(store=store)

        def scenario(control):
            return [control.submit(payload(seed), client="a").job
                    for seed in range(submissions)]

        jobs = run(control, scenario)
        assert len(control.jobs) == TERMINAL_KEEP
        # The oldest terminal jobs went first.
        assert jobs[0].id not in control.jobs
        assert jobs[-1].id in control.jobs
        counts = control.counts()
        assert counts[jobmodel.DONE] == submissions
        assert sum(counts.values()) == submissions

    def test_live_jobs_are_never_dropped(self, backend, tmp_path):
        factory, _, _ = backend
        key = jobmodel.job_key(jobmodel.parse_request(payload(0)))
        store = ResultStore(str(tmp_path), ttl_seconds=None)
        store.put(key, {"cached": True})
        control = factory(store=store)

        def scenario(control):
            live = control.submit(payload(1), client="a").job
            for _ in range(TERMINAL_KEEP + 10):
                control.submit(payload(0), client="a")
            return live.id in control.jobs, len(control.jobs)

        assert run(control, scenario) == (True, TERMINAL_KEEP + 1)


class _RecordingStore:
    """A store stub that records which thread ran its bulk eviction."""

    evictions = 0

    def __init__(self):
        self.evicted_on = []
        self.evicted = threading.Event()

    def get(self, key):
        return None

    def evict_expired(self):
        self.evicted_on.append(threading.get_ident())
        self.evicted.set()
        return 0

    def __len__(self):
        return 0


class TestEviction:
    def test_periodic_eviction_runs_off_the_loop_thread(self, backend):
        factory, _, _ = backend
        store = _RecordingStore()
        control = factory(store=store)

        async def main():
            for _ in range(EVICT_EVERY):
                control.submit({"kind": "nope"}, client="a")
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, store.evicted.wait, 10)
            return threading.get_ident()

        loop_thread = asyncio.run(main())
        assert store.evicted_on
        assert loop_thread not in store.evicted_on

    def test_a_failed_eviction_is_counted(self, backend):
        factory, _, _ = backend
        store = _RecordingStore()

        def broken():
            store.evicted.set()
            raise OSError("store directory vanished")

        store.evict_expired = broken
        control = factory(store=store)

        async def main():
            for _ in range(EVICT_EVERY):
                control.submit({"kind": "nope"}, client="a")
            await asyncio.wait_for(control._eviction, timeout=10)

        with pytest.raises(OSError):
            asyncio.run(main())
        assert control.registry.counters["store_eviction_errors_total"] == 1
