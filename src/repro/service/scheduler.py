"""The service backend of job control: jobs run on a local process pool.

:class:`Scheduler` is a :class:`~repro.service.control.JobControl`:
admission, the job table, the drain and ``/metrics`` come from there.
What this module adds is the execution side, over a
``ProcessPoolExecutor`` (the same engine
:func:`repro.experiments.runner.execute_many` fans matrices over):

* **Execution** - admitted jobs wait in a priority backlog; one asyncio
  worker task per pool slot pulls the lowest-``(priority, seq)`` job and
  runs its cells through the pool, checking the job deadline and
  cancellation flag between cells.
* **Failure containment** - a worker-process crash surfaces as
  ``BrokenProcessPool``; the pool is rebuilt and the job requeued with
  a bounded retry budget.  Per-job timeouts fail the job (an
  already-running cell cannot be interrupted mid-simulation; its slot
  frees when the cell finishes, which the timeout bounds indirectly).
* **Teardown** - after the shared drain, the pool is torn down with the
  same :func:`~repro.experiments.runner.shutdown_pool` helper the CLI's
  Ctrl-C path uses, so no worker process is ever orphaned.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.experiments.runner import (
    RunResult,
    RunSpec,
    execute,
    shutdown_pool,
)
from repro.obs.registry import ObsRegistry
from repro.service import jobs as jobmodel
from repro.service.control import ControlConfig, JobControl
from repro.service.jobs import Job
from repro.service.store import ResultStore


@dataclass(frozen=True)
class SchedulerConfig(ControlConfig):
    """Deployment knobs of one scheduler instance."""

    #: Pool worker processes == concurrently running jobs.
    workers: int = 2


class Scheduler(JobControl):
    """Job control whose jobs run on a local process pool."""

    def __init__(self, config: Optional[SchedulerConfig] = None,
                 store: Optional[ResultStore] = None,
                 registry: Optional[ObsRegistry] = None,
                 cell_runner: Callable[[RunSpec], RunResult] = execute,
                 ) -> None:
        super().__init__(config or SchedulerConfig(), store, registry)
        if self.config.workers < 1:
            raise ValueError("SchedulerConfig.workers must be >= 1")
        self._cell_runner = cell_runner
        self._queue: "asyncio.PriorityQueue" = asyncio.PriorityQueue()
        self._seq = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers: List["asyncio.Task"] = []

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Create the pool and the per-slot worker tasks."""
        if self._pool is None:
            self._pool = self._make_pool()
        if not self._workers:
            self._workers = [
                asyncio.get_running_loop().create_task(
                    self._worker_loop(), name=f"wsrs-job-worker-{index}")
                for index in range(self.config.workers)]

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.config.workers)

    async def _stop_tasks(self) -> None:
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._pool is not None:
            # Same orderly teardown the CLI's Ctrl-C path uses: queued
            # cells cancelled, running workers joined, nothing orphaned.
            shutdown_pool(self._pool)
            self._pool = None

    # -- backend contract ------------------------------------------------

    def _launch(self, job: Job) -> None:
        self._push(job)
        self.registry.sample("queue_depth", self._queued)
        self.registry.sample("cells_per_job", job.request.num_cells)

    def _push(self, job: Job) -> None:
        self._seq += 1
        self._queue.put_nowait((job.priority, self._seq, job))

    def _slots(self) -> int:
        return self.config.workers

    # -- execution -------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            _, _, job = await self._queue.get()
            if job.state != jobmodel.QUEUED:
                continue  # tombstone of a cancelled queued job
            if self._draining:
                self._finish(job, jobmodel.CANCELLED,
                             error="server shutting down")
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        self._to_running(job)
        job.started_at = time.time()
        job.attempts += 1
        started = time.monotonic()
        deadline = started + self.config.job_timeout
        try:
            results: List[RunResult] = []
            for spec in jobmodel.cell_specs(job.request):
                if job.cancel_requested:
                    self._finish(job, jobmodel.CANCELLED,
                                 error="cancelled mid-run")
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                future = loop.run_in_executor(
                    self._pool, self._cell_runner, spec)
                results.append(
                    await asyncio.wait_for(future, timeout=remaining))
            if job.cancel_requested:
                self._finish(job, jobmodel.CANCELLED,
                             error="cancelled mid-run")
                return
            payload = jobmodel.job_payload(job.request, results)
            if job.request.kind == "explore":
                from repro.explore.explorer import count_explore

                count_explore(self.registry, payload)
            if self.store is not None:
                # put() is an atomic disk write; a worker thread keeps
                # the event loop free while it lands.
                await loop.run_in_executor(
                    None, self.store.put, job.key, payload)
            self._finish(job, jobmodel.DONE, result=payload)
            self.registry.sample(
                self.latency_histogram,
                max(1, round((time.monotonic() - started) * 1000.0)))
        except asyncio.CancelledError:
            # Drain timeout expired with this job still running: record
            # the truth and let the teardown proceed.
            self._finish(job, jobmodel.FAILED,
                         error="aborted by server shutdown")
            raise
        except asyncio.TimeoutError:
            self._finish(job, jobmodel.FAILED,
                         error=f"timeout after "
                               f"{self.config.job_timeout:.0f}s")
            self.registry.count("jobs_timeout_total")
        except BrokenProcessPool:
            self._handle_crash(job)
        except Exception as exc:  # simulator raised: config/trace defect
            self._finish(job, jobmodel.FAILED,
                         error=f"{type(exc).__name__}: {exc}")

    def _handle_crash(self, job: Job) -> None:
        """A pool process died under this job: rebuild, then requeue
        within the retry budget."""
        self.registry.count("worker_crashes_total")
        broken, self._pool = self._pool, self._make_pool()
        if broken is not None:
            broken.shutdown(wait=False)
        if job.attempts > self.config.retry_budget:
            self._finish(job, jobmodel.FAILED,
                         error=f"worker process crashed; retry budget "
                               f"({self.config.retry_budget}) exhausted "
                               f"after {job.attempts} attempt(s)")
            return
        self.registry.count("worker_crash_requeues_total")
        job.notes.append(
            f"attempt {job.attempts} crashed a worker; requeued")
        self._to_queued(job)
        self._push(job)


def prometheus_text(scheduler: Scheduler) -> str:
    """The single-node scheduler's ``/metrics`` body."""
    return scheduler.metrics_text()
