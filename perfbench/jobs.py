"""The job-stream workloads: ``service_jobs`` and ``fleet_jobs``.

Load is a closed loop: ``nproc`` client threads in this process, each a
:class:`~repro.service.client.ServiceClient` that submits its next job
only once the previous one is terminal.  A closed loop models callers
that wait for their answer (Carroll & Lin's finite-population M/M/c
regime, which ``repro.explore.queuing`` also uses); it builds no queue
beyond one job per client, so latency here is service time, not
backlog.

The stream (:func:`job_streams`) is a pure function of the seed:

* fresh jobs get a trace seed drawn from one seeded sequence shared by
  all clients, so fresh keys are disjoint across clients and every
  fresh job generates its own trace;
* every fourth fresh job is a small ``matrix`` job (one benchmark x
  three configurations, run cell after cell in one job slot), the rest
  single-cell ``simulate`` jobs - p50 falls in the single-cell mode and
  p90 in the matrix mode;
* every other job repeats a key the *same* client already completed,
  so the result store answers it (the cached class) with no dedup race
  between clients.
"""

from __future__ import annotations

import hashlib
import random
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import figure4_configs
from repro.experiments.runner import RunSpec
from repro.fleet.local import LocalFleet
from repro.service import jobs as jobmodel
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import EmbeddedServer, build_scheduler
from repro.trace.profiles import ALL_BENCHMARKS

from perfbench import groundtruth
from perfbench.metrics import Operations, Reading, latency_readings, \
    median, min_samples

#: Slice of every job cell (instructions).
JOB_MEASURE, JOB_WARMUP = 1_000, 1_000
#: Configurations in one ``matrix`` job.
MATRIX_CONFIGS = 3
#: Every ``MATRIX_EVERY``-th fresh job is a matrix job.
MATRIX_EVERY = 4
#: Fresh jobs in one client's stream: ample for a window at today's
#: speed; a much faster system ends its window when the stream does.
FRESH_PER_CLIENT = 150
#: Client poll interval (seconds): small next to a fresh job's ~100+ ms.
POLL_INTERVAL = 0.01
#: Period of the ``/healthz`` probe in traced runs (seconds).
HEALTHZ_PERIOD = 0.2
#: Samples each latency class needs so p90 has ten beyond it.
CLASS_SAMPLES = min_samples(0.9)


@dataclass(frozen=True)
class Op:
    request: Dict
    fresh: bool


def _trace_seed(seed: int, client: int, index: int, used: set) -> int:
    attempt = 0
    while True:
        text = f"{seed}:{client}:{index}:{attempt}".encode()
        value = int.from_bytes(hashlib.sha256(text).digest()[:4],
                               "big") & 0x7FFFFFFF
        if value not in used:
            used.add(value)
            return value
        attempt += 1


def job_streams(seed: int, clients: int) -> List[List[Op]]:
    """One seeded operation list per client (see module docstring)."""
    names = [config.name for config in figure4_configs()]
    used: set = set()
    streams = []
    for client in range(clients):
        rng = random.Random(f"{seed}:stream:{client}")
        # Single-cell jobs cycle through a seeded permutation of every
        # (benchmark, config) pair and matrix jobs through one of the
        # benchmarks, so each window's cost mix is balanced rather than
        # hinging on which benchmarks the seed happened to favour.
        pairs = [(benchmark, name) for benchmark in ALL_BENCHMARKS
                 for name in names]
        rng.shuffle(pairs)
        rows = list(ALL_BENCHMARKS)
        rng.shuffle(rows)
        fresh: List[Dict] = []
        ops: List[Op] = []
        for index in range(FRESH_PER_CLIENT):
            request = {"measure": JOB_MEASURE, "warmup": JOB_WARMUP,
                       "seed": _trace_seed(seed, client, index, used)}
            matrices, singles = divmod(index, MATRIX_EVERY)
            if singles == MATRIX_EVERY - 1:
                request.update(kind="matrix",
                               benchmarks=[rows[matrices % len(rows)]],
                               configs=rng.sample(names, MATRIX_CONFIGS))
            else:
                benchmark, name = pairs[
                    (matrices * (MATRIX_EVERY - 1) + singles) % len(pairs)]
                request.update(kind="simulate", benchmark=benchmark,
                               config=name)
            fresh.append(request)
            ops.append(Op(request, fresh=True))
            ops.append(Op(rng.choice(fresh), fresh=False))
        streams.append(ops)
    return streams


def request_specs(request: Dict) -> List[RunSpec]:
    """The engine cells a job request expands to."""
    return jobmodel.cell_specs(jobmodel.parse_request(request))


# -- the closed loop -----------------------------------------------------


@dataclass
class Sample:
    """One finished operation, timed at the client."""

    op: Op
    latency: float          # submit to terminal record (s)
    submit: float           # POST round trip (s)
    polls: int
    record: Optional[Dict]  # terminal record; None if the client gave up
    refusals: int = 0
    transport_retries: int = 0


@dataclass
class Drive:
    samples: List[Sample] = field(default_factory=list)
    wall: float = 0.0
    healthz: List[float] = field(default_factory=list)
    metrics_text: str = ""
    #: Unexpected exceptions of client threads (a harness defect).
    errors: List[str] = field(default_factory=list)

    def classes(self) -> Tuple[List[float], List[float]]:
        done = [s for s in self.samples if s.record is not None
                and s.record.get("state") == "done"]
        return ([s.latency for s in done if s.op.fresh],
                [s.latency for s in done if not s.op.fresh])


def _client_loop(url: str, client: int, seed: int, ops: List[Op],
                 drive: Drive, lock: threading.Lock, stop) -> None:
    service = ServiceClient(url, client_id=f"perfbench-{client}",
                            seed=seed)
    for op in ops:
        if stop():
            return
        refusals, retries = service.sheds_seen, service.transport_retries
        start = time.perf_counter()
        record, polls, submitted = None, 0, start
        try:
            record = service.submit(op.request)
            submitted = time.perf_counter()
            while record.get("state") not in jobmodel.TERMINAL_STATES:
                time.sleep(POLL_INTERVAL)
                record = service.job(record["id"])
                polls += 1
        except ServiceError:
            record = None  # counted as a failed operation
        sample = Sample(op, time.perf_counter() - start, submitted - start,
                        polls, record, service.sheds_seen - refusals,
                        service.transport_retries - retries)
        with lock:
            drive.samples.append(sample)


def _guarded(target, drive: Drive, lock: threading.Lock):
    def run(*args) -> None:
        try:
            target(*args)
        except Exception as exc:  # reported by drive_stream
            with lock:
                drive.errors.append(f"{type(exc).__name__}: {exc}")
    return run


def drive_stream(url: str, seed: int, streams: List[List[Op]],
                 seconds: float, class_samples: int,
                 probe_healthz: bool = False) -> Drive:
    """Run the closed loop until ``seconds`` have passed and both
    latency classes hold ``class_samples`` samples (or the streams end)."""
    drive = Drive()
    lock = threading.Lock()
    done = threading.Event()
    started = time.perf_counter()

    def stop() -> bool:
        if time.perf_counter() - started < seconds:
            return False
        with lock:
            fresh, cached = drive.classes()
        return len(fresh) >= class_samples and len(cached) >= class_samples

    threads = [threading.Thread(target=_guarded(_client_loop, drive, lock),
                                name=f"client-{index}",
                                args=(url, index, seed, ops, drive, lock,
                                      stop))
               for index, ops in enumerate(streams)]
    probe = None
    if probe_healthz:
        probe = threading.Thread(target=_guarded(_probe, drive, lock),
                                 args=(url, drive, done),
                                 name="healthz-probe")
        probe.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    drive.wall = time.perf_counter() - started
    done.set()
    if probe is not None:
        probe.join()
    if drive.errors:
        raise RuntimeError(f"client thread failed: {drive.errors[0]}")
    drive.metrics_text = ServiceClient(url).metrics()
    return drive


def _probe(url: str, drive: Drive, done: threading.Event) -> None:
    client = ServiceClient(url, client_id="perfbench-probe")
    while not done.wait(HEALTHZ_PERIOD):
        start = time.perf_counter()
        client.healthz()
        drive.healthz.append(time.perf_counter() - start)


def scrape(text: str, name: str) -> float:
    """One counter from a Prometheus text body (0 when never counted)."""
    match = re.search(rf"^{re.escape(name)} (\S+)$", text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


# -- systems under test --------------------------------------------------


class ServiceSystem:
    """An ``EmbeddedServer`` with a result store in a fresh directory."""

    name = "service"

    def __init__(self, workers: int, scratch: str, tracer=None,
                 spans_dir: Optional[str] = None) -> None:
        store_dir = tempfile.mkdtemp(prefix="store-", dir=scratch)
        if tracer is None:
            scheduler = build_scheduler(workers=workers, store_dir=store_dir)
        else:
            from repro.service.scheduler import Scheduler, SchedulerConfig

            from perfbench.tracing import TimedResultStore, TracedCell

            scheduler = Scheduler(SchedulerConfig(workers=workers),
                                  store=TimedResultStore(store_dir, tracer),
                                  cell_runner=TracedCell(spans_dir))
        self.server = EmbeddedServer(scheduler)
        self.running = False

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> str:
        self.running = True
        return self.server.start()

    def stop(self) -> None:
        if self.running:
            self.running = False
            self.server.stop()


class FleetSystem:
    """``LocalFleet``: coordinator + one single-process worker per core,
    measuring real cells (``cell_delay_ms=0``, no injected delay).

    The workers are spawned processes that build their own scheduler, so
    a traced run cannot hand them a cell runner: the ``core.*`` and
    ``trace.*`` layers read 0 on this workload."""

    name = "fleet"

    def __init__(self, workers: int, scratch: str) -> None:
        self.fleet = LocalFleet(workers=workers, server_workers=1,
                                cell_delay_ms=0.0,
                                announce=lambda _message: None)

    @property
    def url(self) -> str:
        return self.fleet.url

    def start(self) -> str:
        return self.fleet.start()

    def stop(self) -> None:
        self.fleet.stop()


SYSTEMS = {"service_jobs": ServiceSystem, "fleet_jobs": FleetSystem}


def start_timed(system) -> float:
    start = time.perf_counter()
    system.start()
    return time.perf_counter() - start


# -- results -------------------------------------------------------------


def done_jobs(drive: Drive):
    """``(sample, cell specs, cell payloads)`` of every completed job."""
    for sample in drive.samples:
        record = sample.record
        if record is not None and record.get("state") == "done":
            yield (sample, request_specs(sample.op.request),
                   record["result"]["cells"])


def check(seed: int, drives: List[Drive], workers: int,
          checker: groundtruth.Check) -> Dict:
    """Compare every cell payload of every completed job."""
    specs = {}
    for drive in drives:
        for sample in drive.samples:
            for spec in request_specs(sample.op.request):
                specs.setdefault(groundtruth.cell_key(spec), spec)
    reference, _ = groundtruth.reference("jobs", seed, list(specs.values()),
                                         workers)
    for drive in drives:
        for sample, cell_specs, cells in done_jobs(drive):
            shape = [(cell["benchmark"], cell["config"]) for cell in cells]
            if shape != [(spec.benchmark, spec.config.name)
                         for spec in cell_specs]:
                checker.fail(f"job {sample.record['id']}: cells {shape} "
                             f"do not match its request")
            for spec, cell in zip(cell_specs, cells):
                checker.cell(reference.digests, groundtruth.cell_key(spec),
                             cell["summary"])
    return {"committed": reference.committed, "direct": reference.direct}


def operations(drives: List[Drive]) -> Operations:
    ops = Operations()
    for drive in drives:
        for sample in drive.samples:
            state = sample.record.get("state") if sample.record else None
            ops.job(state, sample.refusals, sample.transport_retries)
    return ops


def instructions(drive: Drive) -> int:
    """Simulated instructions of the jobs that ran a simulation."""
    return sum(spec.warmup + cell["summary"]["committed"]
               for sample, cell_specs, cells in done_jobs(drive)
               if sample.op.fresh
               for spec, cell in zip(cell_specs, cells))


def end_to_end(drive: Drive) -> Dict[str, Reading]:
    fresh, cached = drive.classes()
    readings = {
        "sim_kips": Reading(instructions(drive) / drive.wall / 1e3,
                            len(fresh)),
        "jobs_per_s": Reading((len(fresh) + len(cached)) / drive.wall,
                              len(fresh) + len(cached)),
    }
    readings.update(latency_readings("fresh", fresh))
    readings.update(latency_readings("cached", cached))
    return readings


def layer_metrics(system_name: str, drive: Drive, tracer) -> Dict:
    """The service or fleet layer's per-layer metrics of a traced drive."""
    fresh = [s for s in drive.samples if s.op.fresh and s.record
             and s.record.get("state") == "done"]

    def ms(values: List[float]) -> float:
        return median(values) * 1e3 if values else 0.0

    text = drive.metrics_text
    metrics = {
        f"{system_name}.submit_ms": ms([s.submit for s in drive.samples]),
        f"{system_name}.queue_wait_ms": ms(
            [s.record["started_at"] - s.record["submitted_at"]
             for s in fresh]),
        f"{system_name}.run_ms": ms(
            [s.record["finished_at"] - s.record["started_at"]
             for s in fresh]),
        f"{system_name}.healthz_ms": ms(drive.healthz),
    }
    if system_name == "service":
        metrics.update({
            "service.store_get_ms": ms(tracer.samples.get("store_get", [])),
            "service.store_put_ms": ms(tracer.samples.get("store_put", [])),
            "service.polls_per_job": (sum(s.polls for s in fresh) / len(fresh)
                                      if fresh else 0.0),
            "service.cache_hits": scrape(text,
                                         "wsrs_result_cache_hits_total"),
            "service.dedup_hits": scrape(text, "wsrs_dedup_hits_total"),
            "service.sheds": scrape(text, "wsrs_admission_shed_total"),
        })
    else:
        for name in ("forwarded", "store_hits", "worker_cache_hits",
                     "spills", "requeues", "heartbeat_misses"):
            metrics[f"fleet.{name}"] = scrape(text,
                                              f"wsrs_fleet_{name}_total")
    return metrics


def setup_modules(workload: str) -> List[str]:
    if workload == "fleet_jobs":
        return ["repro.fleet.local", "repro.service.client"]
    return ["repro.service.server", "repro.service.client"]
