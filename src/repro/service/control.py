"""The job-control plane shared by the service and the fleet.

Both the single-host :class:`~repro.service.scheduler.Scheduler` and the
fleet's :class:`~repro.fleet.coordinator.FleetCoordinator` are a
:class:`JobControl`.  This base class owns everything a client can
observe of job control:

* **Admission** (:meth:`JobControl.submit`) - the drain gate,
  validation, the result-store short circuit (a completed identical job
  answers 200 without new work), in-flight dedup (an identical
  queued/running job absorbs the submission), the per-client quota and
  the bounded backlog.  Quota/backlog rejections are load sheds: HTTP
  429 with a ``Retry-After`` estimated from the observed job-latency
  histogram and the current backlog.  A finite buffer plus a calibrated
  retry is what keeps a service station stable past saturation (Carroll
  & Lin's queuing model of service stations).
* **The job table** - the state transitions and their counters,
  :meth:`~JobControl.get`, :meth:`~JobControl.cancel`,
  :meth:`~JobControl.counts`.  The table keeps every live job and the
  newest :data:`TERMINAL_KEEP` terminal ones (results outlive them in
  the store); the state counts are running totals, so they do not
  depend on what the table still holds.
* **The drain** (:meth:`JobControl.shutdown`) and the Prometheus
  ``/metrics`` rendering.

A backend supplies only how an admitted job starts (:meth:`_launch`: the
scheduler queues it for its process pool, the coordinator spawns a
dispatch task that forwards it to a worker node), how many jobs run at
once (:meth:`_slots`), its lifecycle tasks, and a metric-name prefix.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.obs.registry import ObsRegistry
from repro.service import jobs as jobmodel
from repro.service.jobs import Job, JobValidationError
from repro.service.store import ResultStore

#: Bounds of the Retry-After hint handed to shed clients (seconds).
RETRY_AFTER_MIN = 1
RETRY_AFTER_MAX = 60
#: Run the store's bulk eviction every this many submissions.
EVICT_EVERY = 64
#: Terminal jobs the job table keeps, oldest dropped first.
TERMINAL_KEEP = 4096


@dataclass(frozen=True)
class ControlConfig:
    """Admission and job-control knobs common to both backends."""

    #: Queued (not yet running) jobs admitted before load shedding.
    max_backlog: int = 64
    #: Queued+running jobs one client may hold before shedding.
    per_client_quota: int = 16
    #: Wall-clock budget of one job, retries included (seconds).
    job_timeout: float = 600.0
    #: Requeues granted after a lost worker (process or node) before
    #: the job fails.
    retry_budget: int = 2
    #: How long shutdown waits for running jobs to finish (seconds).
    drain_timeout: float = 30.0


@dataclass
class Admission:
    """Outcome of one submission attempt (maps onto the HTTP reply)."""

    status: int                     # 200 cached, 202 accepted, 4xx/503
    job: Optional[Job] = None
    error: Optional[str] = None
    retry_after: Optional[int] = None
    deduped: bool = False
    cached: bool = False

    @property
    def accepted(self) -> bool:
        return self.job is not None


class JobControl:
    """Admission control + job table; subclasses run the jobs."""

    #: Prefix of the backend's job counters, latency histogram and
    #: queue gauges (``wsrs_<prefix>jobs_done_total``, ...).
    metric_prefix = ""
    #: Counter of submissions answered from the result store.
    store_hit_counter = "result_cache_hits_total"

    def __init__(self, config: ControlConfig,
                 store: Optional[ResultStore] = None,
                 registry: Optional[ObsRegistry] = None) -> None:
        self.config = config
        self.store = store
        self.registry = registry or ObsRegistry()
        self.jobs: Dict[str, Job] = {}
        self._terminal_ids: Deque[str] = deque()
        self._finished: Dict[str, int] = {state: 0 for state in (
            jobmodel.DONE, jobmodel.FAILED, jobmodel.CANCELLED)}
        self._by_key: Dict[str, Job] = {}
        self._client_active: Dict[str, int] = {}
        self._queued = 0
        self._running = 0
        self._submissions = 0
        self._eviction: Optional["asyncio.Future"] = None
        self._accepting = True
        self._draining = False
        self.started_at = time.time()

    # -- backend contract ------------------------------------------------

    async def start(self) -> None:
        """Start the backend's long-lived tasks."""
        raise NotImplementedError

    def _launch(self, job: Job) -> None:
        """Hand a newly admitted (queued) job to the backend."""
        raise NotImplementedError

    def _slots(self) -> int:
        """How many jobs the backend runs at once."""
        raise NotImplementedError

    async def _stop_tasks(self) -> None:
        """Cancel and reap the backend's tasks at shutdown."""
        raise NotImplementedError

    @property
    def latency_histogram(self) -> str:
        return f"{self.metric_prefix}job_latency_ms"

    # -- lifecycle -------------------------------------------------------

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admission, drain running jobs, cancel the backlog."""
        self._accepting = False
        self._draining = True
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout
            while self._running and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        for job in list(self.jobs.values()):
            if job.state == jobmodel.QUEUED:
                self._finish(job, jobmodel.CANCELLED,
                             error="server shutting down")
        await self._stop_tasks()
        if self.store is not None:
            # Disk-backed eviction scans the store directory; keep the
            # event loop responsive by pushing it to a worker thread.
            await asyncio.get_running_loop().run_in_executor(
                None, self.store.evict_expired)

    # -- admission -------------------------------------------------------

    def submit(self, payload: object, client: str = "anonymous"
               ) -> Admission:
        """Admit (or shed) one job submission.  Synchronous: every
        decision is made from in-memory state plus one store lookup."""
        self._submissions += 1
        if self.store is not None and self._submissions % EVICT_EVERY == 0:
            self._evict_expired()
        if not self._accepting:
            self.registry.count("admission_shed_total")
            return Admission(status=503, error="server is draining",
                             retry_after=RETRY_AFTER_MAX)
        try:
            request = jobmodel.parse_request(payload)
        except JobValidationError as exc:
            self.registry.count("jobs_rejected_total")
            return Admission(status=400, error=str(exc))
        key = jobmodel.job_key(request)

        # Completed-result short circuit: identical work already done
        # (possibly before a restart).
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self.registry.count(self.store_hit_counter)
                job = self._attach(request, key, client)
                job.cached = True
                job.started_at = job.submitted_at
                self._finish(job, jobmodel.DONE, result=stored,
                             admitted=False)
                return Admission(status=200, job=job, cached=True)

        # In-flight dedup: fold into the identical queued/running job.
        existing = self._by_key.get(key)
        if (existing is not None and not existing.terminal
                and not existing.cancel_requested):
            existing.deduped += 1
            self.registry.count("dedup_hits_total")
            return Admission(status=202, job=existing, deduped=True)

        # Load shedding: per-client quota, then global backlog bound.
        active = self._client_active.get(client, 0)
        if active >= self.config.per_client_quota:
            return self._shed(
                "quota_shed_total",
                f"client {client!r} already has {active} active job(s) "
                f"(quota {self.config.per_client_quota})")
        if self._queued >= self.config.max_backlog:
            return self._shed(
                "backlog_shed_total",
                f"backlog full ({self._queued} job(s) queued, bound "
                f"{self.config.max_backlog})")

        job = self._attach(request, key, client)
        self._by_key[key] = job
        self._client_active[client] = active + 1
        self._queued += 1
        self.registry.count(f"{self.metric_prefix}jobs_submitted_total")
        self._launch(job)
        return Admission(status=202, job=job)

    def _shed(self, counter: str, error: str) -> Admission:
        self.registry.count("admission_shed_total")
        self.registry.count(counter)
        return Admission(status=429, error=error,
                         retry_after=self.retry_after_hint())

    def _evict_expired(self) -> None:
        """Start a bulk store eviction on the default executor.  It reads
        every record in the store, so it must not run on the loop; with
        no loop running there is nothing to stall."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self.store.evict_expired()
            return
        if self._eviction is None or self._eviction.done():
            self._eviction = loop.run_in_executor(
                None, self.store.evict_expired)
            self._eviction.add_done_callback(self._count_eviction_error)

    def _count_eviction_error(self, future: "asyncio.Future") -> None:
        if not future.cancelled() and future.exception() is not None:
            self.registry.count("store_eviction_errors_total")

    def _attach(self, request: jobmodel.JobRequest, key: str,
                client: str) -> Job:
        job = Job(id=jobmodel.new_job_id(), key=key, request=request,
                  client=client, submitted_at=time.time())
        self.jobs[job.id] = job
        return job

    def retry_after_hint(self) -> int:
        """Seconds a shed client should wait: the estimated time for the
        backlog to drain one slot, from the observed latency mean."""
        latency = self.registry.histograms.get(self.latency_histogram)
        mean_ms = latency.mean if latency is not None else 0.0
        if mean_ms <= 0:
            return RETRY_AFTER_MIN
        waves = math.ceil((self._queued + 1) / max(1, self._slots()))
        estimate = math.ceil(waves * mean_ms / 1000.0)
        return max(RETRY_AFTER_MIN, min(RETRY_AFTER_MAX, estimate))

    # -- queries ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[bool]:
        """Cancel a job.  True if the cancel took hold (queued job
        cancelled now, or running job flagged to stop), False if already
        terminal, None if unknown."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state == jobmodel.QUEUED:
            self._finish(job, jobmodel.CANCELLED,
                         error="cancelled by client")
            return True
        if job.state == jobmodel.RUNNING:
            job.cancel_requested = True
            return True
        return False

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def running(self) -> int:
        return self._running

    @property
    def accepting(self) -> bool:
        return self._accepting

    def counts(self) -> Dict[str, int]:
        """Jobs per state, including terminal jobs the table dropped."""
        states = {jobmodel.QUEUED: self._queued,
                  jobmodel.RUNNING: self._running}
        states.update(self._finished)
        return states

    # -- state transitions -----------------------------------------------

    def _to_running(self, job: Job) -> None:
        """A queued job starts running."""
        job.state = jobmodel.RUNNING
        self._queued -= 1
        self._running += 1

    def _to_queued(self, job: Job) -> None:
        """A running job goes back to the backlog (worker lost)."""
        job.state = jobmodel.QUEUED
        self._running -= 1
        self._queued += 1

    def _finish(self, job: Job, state: str, result: Optional[Dict] = None,
                error: Optional[str] = None, admitted: bool = True) -> None:
        """Move a job to a terminal state exactly once, releasing its
        backlog or run slot, quota share and dedup key.  ``admitted`` is
        False only for a store hit, which never held any of them."""
        if job.terminal:
            return
        if admitted and job.state in (jobmodel.QUEUED, jobmodel.RUNNING):
            if job.state == jobmodel.QUEUED:
                self._queued -= 1
            else:
                self._running -= 1
            active = self._client_active.get(job.client, 0)
            if active <= 1:
                self._client_active.pop(job.client, None)
            else:
                self._client_active[job.client] = active - 1
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.time()
        if job.started_at is not None:
            job.latency_ms = (job.finished_at - job.submitted_at) * 1000.0
        if self._by_key.get(job.key) is job:
            del self._by_key[job.key]
        self._finished[state] += 1
        self._terminal_ids.append(job.id)
        if len(self._terminal_ids) > TERMINAL_KEEP:
            del self.jobs[self._terminal_ids.popleft()]
        self.registry.count(f"{self.metric_prefix}jobs_{state}_total")

    # -- /metrics ----------------------------------------------------------

    def _gauges(self) -> Dict[str, float]:
        prefix = self.metric_prefix
        gauges: Dict[str, float] = {
            f"wsrs_{prefix}queue_depth": self._queued,
            f"wsrs_{prefix}jobs_running": self._running,
            "wsrs_accepting": int(self._accepting),
            "wsrs_uptime_seconds": round(time.time() - self.started_at, 3),
        }
        if self.store is not None:
            gauges["wsrs_result_store_entries"] = len(self.store)
            gauges["wsrs_result_store_evictions_total"] = \
                self.store.evictions
        return gauges

    def metrics_text(self) -> str:
        """The ``/metrics`` body: counters, live gauges, histograms."""
        return render_prometheus(self.registry, self._gauges())


# -- Prometheus rendering ------------------------------------------------

_QUANTILES = (0.5, 0.95, 0.99)


def _histogram_quantile(bins: Dict[int, int], q: float) -> int:
    total = sum(bins.values())
    if not total:
        return 0
    threshold = q * total
    seen = 0
    value = 0
    for value in sorted(bins):
        seen += bins[value]
        if seen >= threshold:
            return value
    return value


def render_prometheus(registry: ObsRegistry,
                      gauges: Dict[str, float]) -> str:
    """Render an ObsRegistry + live gauges as Prometheus text.

    Counters become ``wsrs_<name>`` counters; histograms become
    quantile-labelled gauges with ``_count``/``_sum`` companions - the
    conventional scrape shape for precomputed summaries.
    """
    lines: List[str] = []
    for name in sorted(registry.counters):
        metric = f"wsrs_{name}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {registry.counters[name]}")
    for metric in sorted(gauges):
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauges[metric]}")
    for name in sorted(registry.histograms):
        histogram = registry.histograms[name]
        metric = f"wsrs_{name}"
        lines.append(f"# TYPE {metric} summary")
        for q in _QUANTILES:
            value = _histogram_quantile(histogram.bins, q)
            lines.append(f'{metric}{{quantile="{q}"}} {value}')
        lines.append(f"{metric}_count {histogram.total_weight}")
        total = sum(value * weight
                    for value, weight in histogram.bins.items())
        lines.append(f"{metric}_sum {total}")
    return "\n".join(lines) + "\n"
