"""The batch workloads: ``fig4_sweep`` and ``explore_lattice``.

Each timed call runs on the default gear from a cold in-process trace
cache (no disk tier) and an empty stepper code cache, as a fresh
``wsrs figure4`` / ``wsrs explore`` does.  The window repeats calls
until ``--seconds`` have passed and at least ``FRESH_SAMPLES`` cell
latencies are in; per-call rates are reported as medians.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import figure4_configs
from repro.experiments import runner
from repro.experiments.runner import RunResult, run_matrix
from repro.explore import explorer
from repro.explore.lattice import LatticeSpec
from repro.trace import cache as trace_cache
from repro.trace.profiles import ALL_BENCHMARKS

from perfbench import groundtruth, host
from perfbench.metrics import Operations, Reading, latency_readings, \
    median, min_samples

#: Reduced slices (instructions).  Figure 4 at 1k/1k keeps one matrix
#: call near three seconds on a 2-core host while trace generation
#: (warm-up + measure + the 8k drain slack per trace) and the
#: simulation loop remain the bulk of the work.
FIG4_MEASURE, FIG4_WARMUP = 1_000, 1_000
EXPLORE_MEASURE, EXPLORE_WARMUP = 2_000, 2_000

#: Cell latencies needed so p90 has ten samples beyond it.
FRESH_SAMPLES = min_samples(0.9)

Progress = Callable[[RunResult], None]


def fig4_call(seed: int, progress: Progress
              ) -> Tuple[List[RunResult], Optional[Dict]]:
    table = run_matrix(figure4_configs(), ALL_BENCHMARKS,
                       measure=FIG4_MEASURE, warmup=FIG4_WARMUP, seed=seed,
                       progress=lambda _b, _c, result: progress(result))
    return [result for row in table.values()
            for result in row.values()], None


def explore_call(seed: int, progress: Progress
                 ) -> Tuple[List[RunResult], Optional[Dict]]:
    results: List[RunResult] = []

    def collect(result: RunResult) -> None:
        results.append(result)
        progress(result)

    payload = explorer.explore(LatticeSpec(), measure=EXPLORE_MEASURE,
                               warmup=EXPLORE_WARMUP, seed=seed,
                               progress=collect)
    return results, payload


CALLS = {"fig4_sweep": fig4_call, "explore_lattice": explore_call}


def frontier_reference(seed: int, results: List[RunResult]) -> Dict:
    """The explore payload a direct run of the same cells produces."""
    return explorer.frontier_payload(
        LatticeSpec(), explorer.DEFAULT_BUDGET, True, "ed2p",
        EXPLORE_MEASURE, EXPLORE_WARMUP, seed, results)


def specs_for(workload: str, seed: int):
    if workload == "fig4_sweep":
        return runner.matrix_specs(figure4_configs(), ALL_BENCHMARKS,
                                   measure=FIG4_MEASURE,
                                   warmup=FIG4_WARMUP, seed=seed)
    return explorer.survivor_specs(LatticeSpec(), measure=EXPLORE_MEASURE,
                                   warmup=EXPLORE_WARMUP, seed=seed)


@dataclass
class Rep:
    """One timed call."""

    wall: float
    results: List[RunResult]
    payload: Optional[Dict]
    #: Call start to each cell's result reaching ``progress`` (seconds).
    latencies: List[float]
    cold: Dict

    @property
    def instructions(self) -> int:
        return sum(result.spec.warmup + result.stats.committed
                   for result in self.results)


def timed_call(workload: str, seed: int,
               progress: Optional[Progress] = None) -> Rep:
    cold = host.cold_state()
    arrivals: List[float] = []

    def seen(result: RunResult) -> None:
        arrivals.append(time.perf_counter())
        if progress is not None:
            progress(result)

    start = time.perf_counter()
    results, payload = CALLS[workload](seed, seen)
    wall = time.perf_counter() - start
    return Rep(wall, results, payload,
               [arrival - start for arrival in arrivals], cold)


def check(workload: str, seed: int, reps: List[Rep], workers: int,
          checker: groundtruth.Check) -> Dict:
    """Compare every cell (and the explore payload) of every call."""
    specs = specs_for(workload, seed)
    reference, direct = groundtruth.reference(workload, seed, specs, workers)
    for rep in reps:
        if len(rep.results) != len(specs):
            checker.fail(f"{len(rep.results)} cells returned, "
                         f"{len(specs)} expected")
        for result in rep.results:
            checker.cell(reference.digests, groundtruth.cell_key(result.spec),
                         result.stats.summary())
        if workload == "explore_lattice":
            if direct:
                expected = groundtruth.digest(frontier_reference(seed, direct))
            else:
                expected = groundtruth.load_committed()[workload][
                    str(seed)]["frontier"]
            checker.value(expected, "explore payload", rep.payload)
    return {"committed": reference.committed, "direct": reference.direct}


def end_to_end(reps: List[Rep]) -> Dict[str, Reading]:
    latencies = [value for rep in reps for value in rep.latencies]
    readings = {
        "sim_kips": Reading(median([rep.instructions / rep.wall / 1e3
                                    for rep in reps]), len(reps)),
        "jobs_per_s": Reading(median([len(rep.results) / rep.wall
                                      for rep in reps]), len(reps)),
    }
    readings.update(latency_readings("fresh", latencies))
    return readings


def run_window(workload: str, seed: int, seconds: float) -> List[Rep]:
    reps: List[Rep] = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or sum(len(rep.latencies) for rep in reps) < FRESH_SAMPLES):
        reps.append(timed_call(workload, seed))
    return reps


def operations(reps: List[Rep], expected_cells: int) -> Operations:
    ops = Operations()
    for rep in reps:
        ops.cells(expected_cells, len(rep.results) == expected_cells)
    return ops


# -- traced run ----------------------------------------------------------


class _TimedCache:
    """Parent-side view of the trace cache that times each ``get``."""

    def __init__(self, tracer) -> None:
        self.cache = trace_cache.default_cache()
        self.tracer = tracer

    def get(self, *key):
        misses = self.cache.misses
        start = time.monotonic()
        trace = self.cache.get(*key)
        outcome = "miss" if self.cache.misses > misses else "hit"
        self.tracer.sample(f"parent_{outcome}", time.monotonic() - start)
        return trace


def traced_call(workload: str, seed: int, scratch: str
                ) -> Tuple[Rep, Dict[str, float]]:
    """One call with every layer timed; returns it and the per-layer
    metrics of the trace, experiments, core and explore layers."""
    from perfbench.tracing import Tracer, TracedCell, core_metrics, \
        patched, read_cells

    tracer = Tracer()
    spans_dir = tempfile.mkdtemp(prefix="spans-", dir=scratch)
    received: Dict[str, float] = {}

    def progress(result: RunResult) -> None:
        received[groundtruth.cell_key(result.spec)] = time.monotonic()

    prewarm = tracer.wrap("prewarm", runner.warm_trace_cache)
    pool = tracer.wrap("pool", runner.execute_many)
    with patched(runner, "execute", TracedCell(spans_dir)), \
            patched(runner, "execute_many", pool), \
            patched(explorer, "execute_many", pool), \
            patched(runner, "warm_trace_cache", prewarm), \
            patched(runner, "default_cache", lambda: _TimedCache(tracer)), \
            patched(explorer, "plan", tracer.wrap("plan", explorer.plan)), \
            patched(explorer, "frontier_payload",
                    tracer.wrap("rank", explorer.frontier_payload)):
        rep = timed_call(workload, seed, progress)
    cells = read_cells(spans_dir)

    metrics = core_metrics(cells)
    misses = tracer.samples.get("parent_miss", [])
    metrics.update({
        "trace.parent.generate_s": sum(misses),
        "trace.parent.misses": len(misses),
        "trace.parent.hits": len(tracer.samples.get("parent_hit", [])),
        "explore.plan_s": sum(span.end - span.start
                              for span in tracer.named("plan", None)),
        "explore.rank_s": sum(span.end - span.start
                              for span in tracer.named("rank")),
        "explore.simulated_cells": (len(rep.results)
                                    if workload == "explore_lattice" else 0),
    })
    warm = tracer.named("prewarm")
    if warm and cells:
        pool_start = warm[0].end
        finished = tracer.named("pool")[0].end
        workers = min(runner.resolve_workers(None), len(cells))
        busy = sum(cell["end"] - cell["start"] for cell in cells)
        metrics.update({
            "experiments.prewarm_s": warm[0].end - warm[0].start,
            "experiments.spawn_s": cells[0]["start"] - pool_start,
            "experiments.idle_s": workers * (finished - pool_start) - busy,
            "experiments.return_s": median(
                [received[cell["key"]] - cell["end"] for cell in cells]),
        })
    return rep, metrics


def setup_modules() -> List[str]:
    return ["repro.experiments.runner", "repro.explore.explorer",
            "repro.config", "repro.trace.profiles"]

