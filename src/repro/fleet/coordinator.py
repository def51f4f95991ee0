"""The fleet coordinator: sharded admission, liveness, node-loss requeue.

One coordinator fronts N worker nodes, each a full single-host service
stack (:mod:`repro.service`).  The coordinator is deliberately *thin* -
it runs no simulations and holds no process pool; it owns exactly four
things:

* **Routing.**  Jobs shard over workers by consistent hash of the
  existing idempotency key (:class:`repro.fleet.ring.HashRing`), so a
  repeat submission lands on the node already holding the cached result
  and a membership change only remaps the key ranges adjacent to the
  changed node.  When the primary owner is clearly busier than the
  secondary (outstanding-job delta >= ``spill_threshold``), the job
  spills to the secondary - bounded load balancing that sacrifices
  cache affinity only under real skew.
* **Liveness.**  A heartbeat task probes every registered worker's
  ``/healthz`` on a fixed interval; ``heartbeat_misses`` consecutive
  misses (unreachable, or answering but *draining*) declare the node
  dead and drop it from the ring.  A dead node that answers again
  rejoins (revival), reclaiming exactly its old key ranges.
* **Requeue.**  A job in flight on a node that dies - transport failure
  mid-poll, or a worker-side cancellation the client never asked for -
  is requeued through the ring (excluding the lost node) under the same
  bounded ``retry_budget`` semantics the single-node scheduler applies
  to worker-process crashes: ``attempts > retry_budget`` fails the job
  with a diagnosable error instead of retrying forever.
* **The authoritative result store.**  Every completed payload is
  written to the coordinator's own :class:`repro.service.store
  .ResultStore` (atomic publication, TTL + corrupt-record sweep), on
  top of each worker's local cache.  A coordinator restart therefore
  *replays* completed work from disk, and a worker restart loses only
  cache locality, never results.

Admission, the job table, the drain and ``/metrics`` are the shared
:class:`repro.service.control.JobControl` - the very code the
single-node scheduler runs - so :class:`repro.service.client
.ServiceClient` cannot tell a coordinator from a plain service.  This
module adds only what a fleet job needs to run: routing, heartbeats,
forwarding and the node-loss requeue.

Every piece of coordinator state is touched only from the event-loop
thread; disk I/O goes through ``run_in_executor`` (the repo-wide
ASYNC-BLOCKING-CALL discipline) and worker HTTP through the async
:mod:`repro.fleet.netio` client.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fleet.netio import TransportError, request_json
from repro.fleet.ring import HashRing
from repro.obs.registry import ObsRegistry
from repro.service import jobs as jobmodel
from repro.service.control import ControlConfig, JobControl, RETRY_AFTER_MAX
from repro.service.jobs import Job, JobRequest
from repro.service.store import ResultStore

#: Per-HTTP-request timeout when talking to workers (seconds).
FORWARD_TIMEOUT = 10.0


@dataclass(frozen=True)
class FleetConfig(ControlConfig):
    """Deployment knobs of one coordinator."""

    #: The coordinator's own defaults for the shared admission bounds.
    max_backlog: int = 256
    per_client_quota: int = 32
    #: Seconds between heartbeat probe rounds.
    heartbeat_interval: float = 0.5
    #: Consecutive missed heartbeats before a node is declared dead.
    heartbeat_misses: int = 3
    #: How often the coordinator polls a worker for job progress.
    poll_interval: float = 0.05
    #: Route to the secondary owner when the primary holds at least
    #: this many more outstanding jobs (0 disables spilling).
    spill_threshold: int = 4


@dataclass
class WorkerNode:
    """Coordinator-side view of one worker."""

    url: str
    alive: bool = True
    #: Consecutive heartbeat misses (reset on any success).
    missed: int = 0
    #: Fleet jobs currently forwarded to this node.
    outstanding: int = 0
    jobs_done: int = 0
    registered_at: float = field(default_factory=time.time)

    def as_dict(self) -> Dict:
        return {"url": self.url, "alive": self.alive,
                "missed": self.missed, "outstanding": self.outstanding,
                "jobs_done": self.jobs_done}


class NodeLost(Exception):
    """The node in charge of a job died (or drained) under it."""


def request_payload(request: JobRequest) -> Dict:
    """Reconstruct the JSON submission body of a validated request.

    Forwarding re-submits the *canonical* form, so the worker derives
    the same idempotency key the coordinator routed on - which is what
    makes the worker's local result cache line up with ring ownership.
    """
    if request.kind == "explore":
        assert request.lattice is not None
        return {"kind": "explore",
                "lattice": json.loads(request.lattice),
                "budget": request.budget,
                "prefilter": request.prefilter,
                "rank": request.rank,
                "measure": request.measure, "warmup": request.warmup,
                "seed": request.seed, "priority": request.priority}
    return {"kind": request.kind,
            "benchmarks": list(request.benchmarks),
            "configs": list(request.configs),
            "measure": request.measure, "warmup": request.warmup,
            "seed": request.seed, "observe": request.observe,
            "priority": request.priority}


class FleetCoordinator(JobControl):
    """Job control whose jobs run on worker nodes, routed by a ring."""

    metric_prefix = "fleet_"
    store_hit_counter = "fleet_store_hits_total"

    def __init__(self, config: Optional[FleetConfig] = None,
                 store: Optional[ResultStore] = None,
                 registry: Optional[ObsRegistry] = None,
                 workers: Optional[List[str]] = None) -> None:
        super().__init__(config or FleetConfig(), store, registry)
        self.nodes: Dict[str, WorkerNode] = {}
        self.ring = HashRing()
        self._node_of: Dict[str, str] = {}   # job id -> worker url
        self._tasks: List["asyncio.Task"] = []
        self._heartbeat_task: Optional["asyncio.Task"] = None
        for url in workers or []:
            self.add_worker(url)

    # -- membership ------------------------------------------------------

    def add_worker(self, url: str) -> WorkerNode:
        """Register a worker (idempotent; a re-register revives it)."""
        url = url.rstrip("/")
        node = self.nodes.get(url)
        if node is None:
            node = WorkerNode(url=url)
            self.nodes[url] = node
            self.registry.count("fleet_nodes_registered_total")
        if not node.alive:
            self._revive(node)
        if node.alive and url not in self.ring:
            self.ring.add(url)
        return node

    def _mark_dead(self, node: WorkerNode) -> None:
        if not node.alive:
            return
        node.alive = False
        self.ring.remove(node.url)
        self.registry.count("fleet_node_deaths_total")
        # In-flight jobs on this node notice on their next poll (the
        # transport fails, or the worker reports a drain-cancel) and
        # requeue themselves through the ring, which no longer contains
        # this node.

    def _revive(self, node: WorkerNode) -> None:
        node.alive = True
        node.missed = 0
        self.ring.add(node.url)
        self.registry.count("fleet_node_revivals_total")

    @property
    def alive_workers(self) -> List[str]:
        return [url for url, node in sorted(self.nodes.items())
                if node.alive]

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        if self._heartbeat_task is None:
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop(), name="wsrs-fleet-heartbeat")

    async def _stop_tasks(self) -> None:
        pending = [task for task in self._tasks if not task.done()]
        if self._heartbeat_task is not None:
            pending.append(self._heartbeat_task)
            self._heartbeat_task = None
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._tasks = []

    # -- backend contract ------------------------------------------------

    def _launch(self, job: Job) -> None:
        task = asyncio.get_running_loop().create_task(
            self._dispatch(job), name=f"wsrs-fleet-dispatch-{job.id}")
        self._tasks.append(task)
        if len(self._tasks) > 64:
            self._tasks = [item for item in self._tasks
                           if not item.done()]

    def _slots(self) -> int:
        return len(self.alive_workers)

    # -- queries ---------------------------------------------------------

    def node_of(self, job_id: str) -> Optional[str]:
        return self._node_of.get(job_id)

    def fleet_summary(self) -> Dict:
        return {
            "workers": [node.as_dict()
                        for _, node in sorted(self.nodes.items())],
            "alive": len(self.alive_workers),
        }

    def _gauges(self) -> Dict[str, float]:
        gauges = super()._gauges()
        gauges["wsrs_fleet_workers_total"] = len(self.nodes)
        gauges["wsrs_fleet_workers_alive"] = len(self.alive_workers)
        return gauges

    # -- routing ---------------------------------------------------------

    def route(self, key: str, avoid: Optional[List[str]] = None
              ) -> Optional[str]:
        """The node a key should run on: its ring owner, spilled to the
        secondary owner under clear load skew."""
        owners = self.ring.owners(key, 2, exclude=avoid or [])
        if not owners:
            return None
        primary = self.nodes[owners[0]]
        if (len(owners) > 1 and self.config.spill_threshold > 0):
            secondary = self.nodes[owners[1]]
            if (primary.outstanding - secondary.outstanding
                    >= self.config.spill_threshold):
                self.registry.count("fleet_spills_total")
                return secondary.url
        return primary.url

    # -- heartbeats ------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            nodes = list(self.nodes.values())
            if nodes:
                await asyncio.gather(
                    *(self._probe(node) for node in nodes))

    async def _probe(self, node: WorkerNode) -> None:
        self.registry.count("fleet_heartbeats_total")
        timeout = max(0.25, min(self.config.heartbeat_interval * 2.0,
                                FORWARD_TIMEOUT))
        healthy = False
        try:
            status, _headers, data = await request_json(
                node.url, "GET", "/healthz", timeout=timeout)
            healthy = (status == 200 and isinstance(data, dict)
                       and data.get("status") == "ok")
        except TransportError:
            healthy = False
        if healthy:
            node.missed = 0
            if not node.alive:
                self._revive(node)
            return
        self.registry.count("fleet_heartbeat_misses_total")
        node.missed += 1
        if node.alive and node.missed >= self.config.heartbeat_misses:
            self._mark_dead(node)

    # -- dispatch --------------------------------------------------------

    async def _dispatch(self, job: Job) -> None:
        """Drive one job to a terminal state, requeueing on node loss."""
        deadline = time.monotonic() + self.config.job_timeout
        avoid: List[str] = []
        try:
            while not job.terminal:
                if job.cancel_requested:
                    self._finish(job, jobmodel.CANCELLED,
                                 error="cancelled by client")
                    return
                if self._draining:
                    self._finish(job, jobmodel.CANCELLED,
                                 error="server shutting down")
                    return
                node_url = self.route(job.key, avoid=avoid)
                if node_url is None and avoid:
                    # Every non-avoided node is gone too; the avoided
                    # one is dead anyway, so retry the full ring.
                    avoid = []
                    node_url = self.route(job.key)
                if node_url is None:
                    self._finish(job, jobmodel.FAILED,
                                 error="no live worker nodes")
                    return
                job.attempts += 1
                try:
                    record = await self._forward_and_wait(
                        job, self.nodes[node_url], deadline)
                except NodeLost as exc:
                    if not self._requeue(job, node_url, str(exc)):
                        return
                    avoid = [node_url]
                    continue
                except asyncio.TimeoutError:
                    self._finish(job, jobmodel.FAILED,
                                 error=f"timeout after "
                                       f"{self.config.job_timeout:.0f}s")
                    return
                self._fold(job, record)
                if job.state == jobmodel.DONE and self.store is not None:
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.store.put, job.key, job.result)
        except asyncio.CancelledError:
            self._finish(job, jobmodel.FAILED,
                         error="aborted by server shutdown")
            raise
        except Exception as exc:  # defensive: a dispatch bug must not
            # leave the job spinning forever
            self._finish(job, jobmodel.FAILED,
                         error=f"{type(exc).__name__}: {exc}")
        finally:
            self._node_of.pop(job.id, None)

    async def _forward_and_wait(self, job: Job, node: WorkerNode,
                                deadline: float) -> Dict:
        """Submit to one worker and poll until the job is terminal there.

        Raises :class:`NodeLost` when the node stops being a usable home
        for the job, :class:`asyncio.TimeoutError` past the deadline.
        """
        headers = {"X-Client": f"fleet:{job.client}"}
        node.outstanding += 1
        self._node_of[job.id] = node.url
        self._to_running(job)
        if job.started_at is None:
            job.started_at = time.time()
        try:
            record = await self._forward(job, node, headers, deadline)
            self.registry.count("fleet_forwarded_total")
            remote_id = record["id"]
            cancel_sent = False
            while record.get("state") not in jobmodel.TERMINAL_STATES:
                if time.monotonic() >= deadline:
                    await self._try_cancel_remote(node, remote_id,
                                                  headers)
                    raise asyncio.TimeoutError
                if job.cancel_requested and not cancel_sent:
                    await self._try_cancel_remote(node, remote_id,
                                                  headers)
                    cancel_sent = True
                await asyncio.sleep(self.config.poll_interval)
                try:
                    status, _h, data = await request_json(
                        node.url, "GET", f"/v1/jobs/{remote_id}",
                        headers=headers, timeout=FORWARD_TIMEOUT)
                except TransportError as exc:
                    raise NodeLost(f"{node.url} unreachable mid-poll: "
                                   f"{exc}") from exc
                if status != 200 or not isinstance(data, dict):
                    raise NodeLost(f"{node.url} lost track of forwarded "
                                   f"job {remote_id} (HTTP {status})")
                record = data
            if (record.get("state") == jobmodel.CANCELLED
                    and not job.cancel_requested):
                # The worker cancelled work the client never asked to
                # cancel: it is draining out from under us.  Node loss.
                raise NodeLost(f"{node.url} drained while holding the "
                               f"job ({record.get('error')})")
            return record
        finally:
            node.outstanding -= 1

    async def _forward(self, job: Job, node: WorkerNode,
                       headers: Dict[str, str],
                       deadline: float) -> Dict:
        """POST the job to a worker, riding out transient sheds."""
        payload = request_payload(job.request)
        while True:
            if time.monotonic() >= deadline:
                raise asyncio.TimeoutError
            try:
                status, reply_headers, data = await request_json(
                    node.url, "POST", "/v1/jobs", payload=payload,
                    headers=headers, timeout=FORWARD_TIMEOUT)
            except TransportError as exc:
                raise NodeLost(
                    f"{node.url} unreachable on submit: {exc}") from exc
            if status in (200, 202) and isinstance(data, dict):
                if status == 200 and data.get("cached"):
                    # The node served its local cache: the routing win
                    # consistent hashing exists to produce.
                    self.registry.count("fleet_worker_cache_hits_total")
                return data
            if status == 429 and isinstance(data, dict):
                # Worker backlog full: transient back-pressure, not node
                # loss.  Honour its hint, bounded, then re-offer.
                hint = data.get("retry_after")
                pause = min(float(hint) if isinstance(
                    hint, (int, float)) else 1.0,
                    float(RETRY_AFTER_MAX))
                await asyncio.sleep(max(0.05, pause))
                if job.cancel_requested or self._draining:
                    raise NodeLost("gave up re-offering during "
                                   "cancel/drain")
                if not node.alive:
                    raise NodeLost(f"{node.url} died while shedding")
                continue
            if status == 503:
                raise NodeLost(f"{node.url} is draining")
            detail = data.get("error") if isinstance(data, dict) else data
            raise RuntimeError(
                f"worker {node.url} rejected the job ({status}): "
                f"{detail}")

    async def _try_cancel_remote(self, node: WorkerNode, remote_id: str,
                                 headers: Dict[str, str]) -> None:
        try:
            await request_json(node.url, "DELETE",
                               f"/v1/jobs/{remote_id}", headers=headers,
                               timeout=FORWARD_TIMEOUT)
        except TransportError:
            pass  # the poll loop will classify the node's fate

    # -- outcomes ----------------------------------------------------------

    def _requeue(self, job: Job, node_url: str, reason: str) -> bool:
        """Fold a node loss into the retry budget.  True to retry."""
        self.registry.count("fleet_node_losses_total")
        if job.cancel_requested:
            self._finish(job, jobmodel.CANCELLED,
                         error="cancelled by client")
            return False
        if job.attempts > self.config.retry_budget:
            self._finish(
                job, jobmodel.FAILED,
                error=f"node lost ({reason}); retry budget "
                      f"({self.config.retry_budget}) exhausted after "
                      f"{job.attempts} attempt(s)")
            return False
        self.registry.count("fleet_requeues_total")
        job.notes.append(
            f"attempt {job.attempts} lost node {node_url}; requeued")
        self._to_queued(job)
        return True

    def _fold(self, job: Job, record: Dict) -> None:
        """Adopt a worker's terminal record as the fleet job's outcome."""
        state = record.get("state")
        node_url = self._node_of.get(job.id)
        if state == jobmodel.DONE:
            result = record.get("result")
            if not isinstance(result, dict):
                self._finish(job, jobmodel.FAILED,
                             error=f"{node_url} reported done without a "
                                   f"result payload")
                return
            if node_url in self.nodes:
                self.nodes[node_url].jobs_done += 1
            self._finish(job, jobmodel.DONE, result=result)
            self.registry.sample(
                self.latency_histogram,
                max(1, round((job.finished_at - job.submitted_at)
                             * 1000.0)))
            return
        if state == jobmodel.CANCELLED:
            self._finish(job, jobmodel.CANCELLED,
                         error=record.get("error") or "cancelled")
            return
        self._finish(job, jobmodel.FAILED,
                     error=record.get("error")
                     or f"failed on {node_url}")
