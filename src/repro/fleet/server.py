"""HTTP front end of the fleet coordinator.

:class:`CoordinatorServer` is the service's own
:class:`repro.service.server.ServiceServer` speaking the same
``/v1/jobs`` API - a :class:`repro.service.client.ServiceClient` pointed
at a coordinator cannot tell it from a single-node service.  It adds
the fleet-private routes, the ``node`` holding each job in its status
record and a ``fleet`` block in ``/healthz``:

=================================  ====================================
``POST /v1/fleet/register``        a worker announces itself
                                   (``{"url": "http://host:port"}``);
                                   idempotent, revives a dead node
``GET /v1/fleet``                  fleet topology: per-worker liveness,
                                   outstanding jobs, completions
=================================  ====================================

:func:`serve_coordinator` is the blocking ``wsrs fleet
serve-coordinator`` entry point with the same SIGINT/SIGTERM drain as
the service; :class:`EmbeddedCoordinator` runs the stack on a daemon
thread for tests, the local fleet harness and the bench.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.fleet.coordinator import FleetConfig, FleetCoordinator
from repro.service.server import (
    EmbeddedServer,
    ServiceServer,
    run_until_signalled,
)
from repro.service.store import DEFAULT_TTL_SECONDS, ResultStore

#: Default coordinator port (one above the service's 8787).
DEFAULT_COORDINATOR_PORT = 8788


def coordinator_metrics_text(coordinator: FleetCoordinator) -> str:
    """The coordinator's ``/metrics`` body (``wsrs_fleet_*`` family)."""
    return coordinator.metrics_text()


class CoordinatorServer(ServiceServer):
    """The service HTTP front plus the fleet routes."""

    name = "wsrs fleet coordinator"
    control: FleetCoordinator

    def route(self, method: str, target: str, headers: Dict[str, str],
              body: bytes) -> Tuple[int, object, Dict[str, str]]:
        path = target.split("?", 1)[0]
        if path == "/v1/fleet":
            if method != "GET":
                return 405, {"error": "fleet topology is GET-only"}, {}
            return 200, self.control.fleet_summary(), {}
        if path == "/v1/fleet/register":
            if method != "POST":
                return 405, {"error": "register workers with POST"}, {}
            return self._register(body)
        return super().route(method, target, headers, body)

    def _healthz(self) -> Dict:
        record = super()._healthz()
        record["fleet"] = self.control.fleet_summary()
        return record

    def _register(self, body: bytes
                  ) -> Tuple[int, object, Dict[str, str]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "request body is not valid JSON"}, {}
        url = payload.get("url") if isinstance(payload, dict) else None
        if not isinstance(url, str) or not url.startswith("http"):
            return 400, {"error": "register payload needs a worker "
                                  "'url'"}, {}
        node = self.control.add_worker(url)
        return 200, {"registered": node.url,
                     "workers": self.control.alive_workers}, {}

    def _status(self, job_id: str) -> Tuple[int, object, Dict[str, str]]:
        status, record, extra = super()._status(job_id)
        if status == 200:
            record["node"] = self.control.node_of(job_id)
        return status, record, extra


# -- blocking entry point (wsrs fleet serve-coordinator) ------------------


def build_coordinator(workers: Optional[List[str]] = None,
                      backlog: int = 256, quota: int = 32,
                      job_timeout: float = 600.0, retry_budget: int = 2,
                      heartbeat_interval: float = 0.5,
                      heartbeat_misses: int = 3,
                      spill_threshold: int = 4,
                      poll_interval: float = 0.05,
                      drain_timeout: float = 30.0,
                      store_dir: Optional[str] = None,
                      ttl_seconds: Optional[float] = DEFAULT_TTL_SECONDS,
                      ) -> FleetCoordinator:
    """Assemble a coordinator from flat deployment knobs."""
    config = FleetConfig(max_backlog=backlog, per_client_quota=quota,
                         job_timeout=job_timeout,
                         retry_budget=retry_budget,
                         heartbeat_interval=heartbeat_interval,
                         heartbeat_misses=heartbeat_misses,
                         spill_threshold=spill_threshold,
                         poll_interval=poll_interval,
                         drain_timeout=drain_timeout)
    store = (ResultStore(store_dir, ttl_seconds=ttl_seconds)
             if store_dir else None)
    return FleetCoordinator(config=config, store=store, workers=workers)


def serve_coordinator(host: str = "127.0.0.1",
                      port: int = DEFAULT_COORDINATOR_PORT,
                      coordinator: Optional[FleetCoordinator] = None,
                      announce: Callable[[str], None] = print) -> int:
    """Run the coordinator until SIGINT/SIGTERM; returns an exit code."""
    server = CoordinatorServer(coordinator or build_coordinator(), host,
                               port)
    return run_until_signalled(server, announce)


class EmbeddedCoordinator(EmbeddedServer):
    """The coordinator stack on a daemon thread (tests + local fleet)."""

    server_class = CoordinatorServer

    def __init__(self, coordinator: Optional[FleetCoordinator] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(coordinator or build_coordinator(), host, port)
