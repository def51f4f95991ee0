"""Metric catalogue, the percentile rule and failure accounting.

``END_TO_END`` are what a user of the system sees; every workload
reports each of them (``--trace 0``), so each is defined for all four
workloads:

* ``sim_kips`` - simulated instructions (warm-up + measured, from the
  returned statistics) per second of the timed calls;
* ``jobs_per_s`` - completed jobs per second; for the batch workloads a
  job is one matrix cell;
* ``fresh_p50_ms`` / ``fresh_p90_ms`` - submit to terminal record for
  jobs that ran a simulation; for the batch workloads, call start to the
  cell's result reaching the caller's ``progress`` callback (the rows a
  ``wsrs figure4`` user sees stream in).

``REPORT_ONLY`` metrics are printed with unit and sample count but are
not in the result object: ``cached_*`` exist only where a result store
answers (service and fleet), and ``failed_ratio`` reads 0 on a healthy
run - the contract's ``attempted``/``failed`` fields carry it instead.

Latency percentiles (:func:`percentile`) are reported only with at
least ``MIN_BEYOND`` samples beyond them.

``PER_LAYER`` metrics come from the traced run (``--trace 1``).  A
layer a workload never enters reports 0.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("sim_kips", "kinstr/s", "higher"),
    Metric("jobs_per_s", "1/s", "higher"),
    Metric("fresh_p50_ms", "ms", "lower"),
    Metric("fresh_p90_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

REPORT_ONLY: Tuple[Metric, ...] = (
    Metric("cached_p50_ms", "ms", "lower"),
    Metric("cached_p90_ms", "ms", "lower"),
    Metric("failed_ratio", "ratio", "lower"),
)


def _layer(unit: str, better: str, *names: str) -> Tuple[Metric, ...]:
    return tuple(Metric(name, unit, better) for name in names)


PER_LAYER: Tuple[Metric, ...] = (
    # repro.trace: around TraceCache.get, parent and pool children apart
    *_layer("s", "lower", "trace.parent.generate_s",
            "trace.child.generate_s"),
    *_layer("count", "lower", "trace.parent.misses"),
    *_layer("count", "higher", "trace.parent.hits"),
    *_layer("count", "lower", "trace.child.misses"),
    *_layer("count", "higher", "trace.child.hits"),
    # repro.core: inside the pool children, per cell
    *_layer("s", "lower", "core.build_s", "core.warmup_s",
            "core.measure_s"),
    *_layer("kinstr/s", "higher", "core.loop_kips"),
    *_layer("count", "lower", "core.cells.reference", "core.cells.horizon"),
    *_layer("count", "higher", "core.cells.specialized"),
    *_layer("count", "lower", "core.despecializations"),
    *_layer("ratio", "higher", "core.cycles_skipped_ratio"),
    # repro.experiments: the pool engine around the cells
    *_layer("s", "lower", "experiments.prewarm_s", "experiments.spawn_s",
            "experiments.idle_s", "experiments.return_s"),
    # repro.explore
    *_layer("s", "lower", "explore.plan_s", "explore.rank_s"),
    *_layer("count", "lower", "explore.simulated_cells"),
    # repro.service
    *_layer("ms", "lower", "service.submit_ms", "service.store_get_ms",
            "service.store_put_ms", "service.queue_wait_ms",
            "service.run_ms", "service.healthz_ms"),
    *_layer("count", "lower", "service.polls_per_job"),
    *_layer("count", "higher", "service.cache_hits", "service.dedup_hits"),
    *_layer("count", "lower", "service.sheds"),
    # repro.fleet
    *_layer("ms", "lower", "fleet.submit_ms", "fleet.queue_wait_ms",
            "fleet.run_ms", "fleet.healthz_ms"),
    *_layer("count", "lower", "fleet.forwarded"),
    *_layer("count", "higher", "fleet.store_hits",
            "fleet.worker_cache_hits"),
    *_layer("count", "lower", "fleet.spills", "fleet.requeues",
            "fleet.heartbeat_misses"),
    # the benchmark itself
    *_layer("ratio", "lower", "bench.tracing_overhead"),
)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    return _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return _UNIT.fullmatch(unit) is not None


# -- percentiles ---------------------------------------------------------

#: A percentile is reported only when at least this many samples lie
#: beyond it (p90 therefore needs 100 samples).
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above rank ``ceil(q * count)``."""
    return count - max(1, math.ceil(q * count))


def min_samples(q: float) -> int:
    """The smallest sample count whose ``q`` percentile is supported."""
    count = 1
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (``statistics.quantiles``, exclusive method);
    raises if fewer than ``MIN_BEYOND`` samples lie beyond it."""
    count = len(values)
    if count < 2:
        raise ValueError(f"percentile of {count} samples")
    if q > 0.5 and samples_beyond(count, q) < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {count} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it")
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- operations attempted / failed --------------------------------------


@dataclass
class Operations:
    """Operations attempted and failed in one timed window.

    A refused submission (429/503, including one the client retried
    after ``Retry-After``), a transport retry, a job that ends in any
    state but ``done`` and a call that raised all count as failed; each
    refusal or retry is also one more attempt.
    """

    attempted: int = 0
    failed: int = 0

    def job(self, state: Optional[str], refusals: int = 0,
            transport_retries: int = 0) -> None:
        """One job: its final state (None if the client gave up)."""
        retries = refusals + transport_retries
        self.attempted += 1 + retries
        self.failed += retries + (0 if state == "done" else 1)

    def cells(self, count: int, ok: bool) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Reading:
    """One reported value with its sample count."""

    value: float
    samples: int


def latency_readings(prefix: str, values: List[float]
                     ) -> Dict[str, Reading]:
    """``<prefix>_p50_ms`` and ``<prefix>_p90_ms`` from seconds."""
    return {
        f"{prefix}_p50_ms": Reading(percentile(values, 0.5) * 1e3,
                                    len(values)),
        f"{prefix}_p90_ms": Reading(percentile(values, 0.9) * 1e3,
                                    len(values)),
    }
