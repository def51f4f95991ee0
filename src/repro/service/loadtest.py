"""Multi-client load harness: ``wsrs loadtest`` -> ``BENCH_service.json``.

Drives ``clients`` concurrent clients (real threads, real HTTP, real
retry/backoff behaviour) against a live service - an external one via
``url=...`` or an :class:`~repro.service.server.EmbeddedServer` spun up
in-process - and answers the two questions that matter for a service in
front of the simulator:

* **Is it correct under concurrency?**  Every cell a client received is
  compared against a direct
  :func:`repro.experiments.runner.run_matrix` execution of the same
  (benchmark, configuration) matrix.  The simulator is deterministic,
  so the comparison is *bit-identical equality* of the full statistic
  summaries (after one JSON round-trip, which Python floats survive
  exactly) - not approximate closeness.
* **What does it cost?**  Per pass: throughput (jobs/s), client-observed
  latency percentiles (p50/p95/p99), and the shed rate (submissions
  that received a 429/503 and backed off).  The run executes
  ``passes >= 2`` identical passes: the first pays for the simulations,
  later passes must be served from the deduplicating result store - the
  record's ``cache_hits`` counts the store short-circuits scraped from
  ``/metrics``, and the acceptance gate requires it to be nonzero.

The JSON record is published atomically (:mod:`repro.atomicio`), so a
monitoring job never reads a torn benchmark file.
"""

from __future__ import annotations

import math
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.atomicio import atomic_write_json
from repro.config import config_by_name
from repro.experiments.runner import run_matrix
from repro.service.client import ServiceClient
from repro.service.jobs import cell_payload
from repro.service.server import EmbeddedServer, build_scheduler

#: Default matrix: two benchmarks x two configurations - the smallest
#: sweep that exercises dedup keys across both axes.
DEFAULT_BENCHMARKS = ("gzip", "mcf")
DEFAULT_CONFIGS = ("RR 256", "WSRS RC S 512")


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """True nearest-rank percentile (q in [0, 1]).

    Returns ``None`` for an empty sequence: an all-shed pass has *no*
    latency, not a perfect 0.0 ms one, and the record must say so
    rather than masking the outage with flattering numbers.
    """
    if not values:
        return None
    ordered = sorted(values)
    if q <= 0.0:
        return ordered[0]
    rank = min(len(ordered), math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _round_ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 3)


def _job_requests(benchmarks: Sequence[str], configs: Sequence[str],
                  measure: int, warmup: int, seed: int) -> List[Dict]:
    """One ``simulate`` job per cell: per-cell idempotency keys, so a
    repeat pass hits the result store once per cell."""
    return [
        {"kind": "simulate", "benchmarks": [benchmark],
         "configs": [config], "measure": measure, "warmup": warmup,
         "seed": seed}
        for benchmark in benchmarks
        for config in configs
    ]


def _drive_pass(url: str, requests: List[Dict], clients: int,
                poll_interval: float, timeout: float, seed: int
                ) -> Tuple[List[Dict], Dict]:
    """One pass: round-robin the requests over ``clients`` threads.

    Returns the terminal job records of the *completed* jobs in request
    order and the pass record.  A job that sheds out or fails does not
    abort the pass - the remaining jobs still run, and the pass record
    reports the pass as degraded instead of masking the outage.
    """
    records: List[Optional[Dict]] = [None] * len(requests)
    latencies: List[Optional[float]] = [None] * len(requests)
    failures: List[str] = []
    workers: List[threading.Thread] = []
    handles = [
        ServiceClient(url, client_id=f"loadtest-{index}",
                      seed=seed * 1000 + index)
        for index in range(clients)
    ]

    def drive(client_index: int) -> None:
        client = handles[client_index]
        for index in range(client_index, len(requests), clients):
            begin = time.monotonic()
            try:
                record = client.submit_and_wait(
                    requests[index], poll_interval=poll_interval,
                    timeout=timeout)
            except Exception as exc:
                failures.append(f"job {index}: {exc!r}")
                continue
            records[index] = record
            latencies[index] = (time.monotonic() - begin) * 1000.0

    wall_start = time.monotonic()
    for client_index in range(min(clients, len(requests))):
        thread = threading.Thread(target=drive, args=(client_index,),
                                  name=f"loadtest-client-{client_index}")
        thread.start()
        workers.append(thread)
    for thread in workers:
        thread.join()
    wall = time.monotonic() - wall_start
    sheds = sum(client.sheds_seen for client in handles)
    done = [record for record in records if record is not None]
    completed = len(done)
    latency = [value for value in latencies if value is not None]
    submissions = len(requests) + sheds
    return done, {
        "jobs": len(requests),
        "completed": completed,
        "failures": failures,
        "degraded": completed < len(requests),
        "wall_seconds": round(wall, 3),
        "throughput_jobs_per_s":
            round(completed / wall, 3) if wall else 0.0,
        # None (JSON null) when nothing completed: an all-shed pass has
        # no latency, not a flattering 0.0 ms one.
        "latency_ms": {
            "p50": _round_ms(percentile(latency, 0.50)),
            "p95": _round_ms(percentile(latency, 0.95)),
            "p99": _round_ms(percentile(latency, 0.99)),
        },
        "sheds": sheds,
        "shed_rate": round(sheds / submissions, 4) if submissions
        else 0.0,
        "requeues": sum(
            1 for record in done
            for note in record.get("notes", []) if "requeued" in note),
        "cached_jobs": sum(1 for record in done if record.get("cached")),
    }


def _cells_of(records: List[Dict]) -> List[Dict]:
    return [cell for record in records
            for cell in record["result"]["cells"]]


def _scrape_counter(metrics_text: str, name: str) -> int:
    for line in metrics_text.splitlines():
        if line.startswith(name + " "):
            try:
                return int(float(line.split()[1]))
            except (IndexError, ValueError):
                return 0
    return 0


def _direct_cells(benchmarks: Sequence[str], configs: Sequence[str],
                  measure: int, warmup: int, seed: int,
                  workers: Optional[int]) -> List[Dict]:
    """The ground truth: the same matrix through run_matrix, shaped like
    the service's cell payloads and JSON-round-tripped once."""
    import json

    table = run_matrix([config_by_name(name) for name in configs],
                       benchmarks, measure=measure, warmup=warmup,
                       seed=seed, workers=workers)
    cells = []
    for benchmark in benchmarks:
        for config in configs:
            payload = cell_payload(table[benchmark][config])
            cells.append(json.loads(json.dumps(payload)))
    return cells


def run(url: Optional[str] = None, clients: int = 4,
        benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
        configs: Sequence[str] = DEFAULT_CONFIGS,
        measure: int = 4_000, warmup: int = 2_000, seed: int = 1,
        passes: int = 2, out: Optional[str] = "BENCH_service.json",
        server_workers: int = 2, direct_workers: Optional[int] = None,
        poll_interval: float = 0.05, job_timeout: float = 600.0,
        announce: Callable[[str], None] = print) -> Dict:
    """Run the load test; returns (and optionally writes) the record.

    With ``url=None`` an embedded server (result store in a temporary
    directory, ``server_workers`` pool processes) hosts the test.  The
    record's ``identical`` field is the acceptance gate: every cell the
    service returned, on every pass, bit-identical to direct execution.
    ``degraded`` flags a run where some job never completed (shed past
    the retry budget, failed, or unreachable); such a pass reports
    ``null`` latency percentiles over the jobs that never finished
    rather than pretending they were instant.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    requests = _job_requests(benchmarks, configs, measure, warmup, seed)
    own_server: Optional[EmbeddedServer] = None
    store_tmp: Optional[tempfile.TemporaryDirectory] = None
    if url is None:
        store_tmp = tempfile.TemporaryDirectory(prefix="wsrs-loadtest-")
        scheduler = build_scheduler(workers=server_workers,
                                    store_dir=store_tmp.name,
                                    job_timeout=job_timeout)
        own_server = EmbeddedServer(scheduler)
        url = own_server.start()
        announce(f"loadtest: embedded service at {url} "
                 f"({server_workers} worker(s))")
    try:
        pass_records: List[Dict] = []
        all_pass_cells: List[List[Dict]] = []
        for pass_index in range(passes):
            records, pass_record = _drive_pass(
                url, requests, clients, poll_interval, job_timeout,
                seed + pass_index)
            all_pass_cells.append(_cells_of(records))
            pass_records.append(pass_record)
            p95 = pass_record["latency_ms"]["p95"]
            announce(f"loadtest: pass {pass_index + 1}/{passes} - "
                     f"{pass_record['throughput_jobs_per_s']} "
                     f"jobs/s, p95 "
                     f"{'n/a' if p95 is None else format(p95, '.0f')} "
                     f"ms, {pass_record['sheds']} shed(s)"
                     + (f", DEGRADED ({pass_record['completed']}/"
                        f"{len(requests)} completed)"
                        if pass_record["degraded"] else ""))

        metrics_text = ServiceClient(url, client_id="loadtest").metrics()
        cache_hits = _scrape_counter(metrics_text,
                                     "wsrs_result_cache_hits_total")
        announce("loadtest: verifying against direct run_matrix "
                 "execution...")
        direct = _direct_cells(benchmarks, configs, measure, warmup,
                               seed, direct_workers)
        identical = all(cells == direct for cells in all_pass_cells)
        degraded = any(pass_record["degraded"]
                       for pass_record in pass_records)
        record = {
            "benchmark": "service-loadtest",
            "clients": clients,
            "cells": len(requests),
            "measure": measure,
            "warmup": warmup,
            "seed": seed,
            "passes": pass_records,
            "cache_hits": cache_hits,
            "identical": identical,
            "degraded": degraded,
        }
        if out:
            atomic_write_json(out, record, indent=2)
            announce(f"loadtest: wrote {out}")
        announce(f"loadtest: identical={identical} "
                 f"cache_hits={cache_hits}"
                 + (" degraded=True" if degraded else ""))
        return record
    finally:
        if own_server is not None:
            own_server.stop()
        if store_tmp is not None:
            store_tmp.cleanup()
