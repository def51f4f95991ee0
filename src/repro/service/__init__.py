"""Simulation-as-a-service: the async job layer over the experiment engine.

The paper's evaluation is hundreds of (configuration, benchmark) cells;
the ROADMAP's north star is a system serving that fan-out to many
concurrent clients.  This package turns the one-shot CLI entry points
into a long-lived, stdlib-only service:

=================  ====================================================
:mod:`jobs`        job model: request validation, idempotency keys
                   derived from the trace-cache key scheme, state
                   machine, result payload shaping
:mod:`store`       disk-backed result store - atomic writes
                   (:mod:`repro.atomicio`) and TTL eviction
:mod:`control`     the job-control plane shared with the fleet:
                   admission control (result-store short circuit,
                   dedup of identical in-flight requests, per-client
                   quotas, bounded backlog with load shedding), the
                   bounded job table, graceful drain, ``/metrics``
:mod:`scheduler`   its local backend: jobs run on the PR-1
                   ``ProcessPoolExecutor`` engine with per-job
                   timeout/cancellation and worker-crash requeue
:mod:`server`      asyncio HTTP server for either backend:
                   ``POST/GET/DELETE /v1/jobs``, ``/healthz``,
                   Prometheus-style ``/metrics`` fed from the PR-4
                   :class:`~repro.obs.registry.ObsRegistry`
:mod:`client`      retrying HTTP client - exponential backoff with
                   jitter, ``Retry-After`` honoured on load shedding
:mod:`loadtest`    multi-client load harness: throughput/latency
                   percentiles, bit-identical cross-check against
                   direct :func:`~repro.experiments.runner.run_matrix`
                   execution, ``BENCH_service.json``
=================  ====================================================

CLI entry points: ``wsrs serve``, ``wsrs submit``, ``wsrs loadtest``.
"""

from repro.service.jobs import (  # noqa: F401
    Job,
    JobRequest,
    JobValidationError,
    job_key,
    parse_request,
)
from repro.service.scheduler import Scheduler, SchedulerConfig  # noqa: F401
from repro.service.store import ResultStore  # noqa: F401
