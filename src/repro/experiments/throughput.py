"""Experiment-engine throughput measurement (``BENCH_throughput.json``).

The ROADMAP's north star is a system that "runs as fast as the hardware
allows"; this module is the instrument that keeps that claim measured.
It runs a (benchmark x configuration) sweep through the parallel
experiment engine and records the throughput figures that matter for the
sweep layer:

* **cells/min** - completed simulations per minute of wall-clock;
* **sim-KIPS** - thousands of simulated instructions (warm-up +
  measured) retired per second of wall-clock, summed over cells;
* **wall-clock per phase** - trace generation/cache warm-up vs. the
  sweep itself;
* trace-cache hit/miss counters, so cache regressions are visible.

``python -m repro throughput [--workers N] [--out PATH]`` writes the
JSON record; the CI smoke sweep archives it as a build artifact so the
performance trajectory of the engine is tracked PR over PR.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.config import MachineConfig, baseline_rr_256, ws_rr, wsrs_rc
from repro.experiments.runner import (
    distinct_workloads,
    execute_many,
    matrix_specs,
    resolve_workers,
    warm_trace_cache,
)
from repro.trace.cache import default_cache
from repro.trace.profiles import ALL_BENCHMARKS

#: Schema version of the JSON record.
SCHEMA = 1

DEFAULT_MEASURE = 20_000
DEFAULT_WARMUP = 20_000
DEFAULT_OUT = "BENCH_throughput.json"


def default_configs() -> Sequence[MachineConfig]:
    """A three-configuration column: baseline, WS, WSRS."""
    return (baseline_rr_256(), ws_rr(512), wsrs_rc(512))


def run(
    benchmarks: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[MachineConfig]] = None,
    measure: int = DEFAULT_MEASURE,
    warmup: int = DEFAULT_WARMUP,
    seed: int = 1,
    workers: Optional[int] = None,
    out: Optional[str] = DEFAULT_OUT,
    print_summary: bool = True,
) -> Dict:
    """Time one sweep and (optionally) write the JSON record.

    Returns the record as a dictionary; ``out=None`` skips the file.
    """
    benchmarks = list(benchmarks if benchmarks is not None
                      else ALL_BENCHMARKS)
    configs = list(configs if configs is not None else default_configs())
    workers = resolve_workers(workers)
    specs = matrix_specs(configs, benchmarks, measure=measure,
                         warmup=warmup, seed=seed)

    cache = default_cache()
    hits_before, misses_before = cache.hits, cache.misses

    distinct_traces = len(distinct_workloads(specs))
    warm_start = time.perf_counter()
    warm_trace_cache(specs)
    warm_seconds = time.perf_counter() - warm_start

    sweep_start = time.perf_counter()
    results = execute_many(specs, workers=workers)
    sweep_seconds = time.perf_counter() - sweep_start

    total_seconds = warm_seconds + sweep_seconds
    # Instructions actually simulated: measured slice (from stats, exact)
    # plus the warm-up phase each cell ran before its measurement reset.
    simulated = sum(result.stats.committed + result.spec.warmup
                    for result in results)
    record = {
        "schema": SCHEMA,
        "workers": workers,
        "cells": len(results),
        "benchmarks": benchmarks,
        "configs": [config.name for config in configs],
        "measure": measure,
        "warmup": warmup,
        "seed": seed,
        # How many cells ran on each core-loop gear (see BENCH_core.json
        # for the dedicated three-gear comparison).
        "gears": dict(Counter(result.gear for result in results)),
        "distinct_traces": distinct_traces,
        "phases": {
            "trace_warm_s": round(warm_seconds, 3),
            "sweep_s": round(sweep_seconds, 3),
            "total_s": round(total_seconds, 3),
        },
        "cells_per_min": round(60.0 * len(results) / sweep_seconds, 2)
        if sweep_seconds else 0.0,
        "sim_kips": round(simulated / sweep_seconds / 1000.0, 1)
        if sweep_seconds else 0.0,
        "trace_cache": {
            "hits": cache.hits - hits_before,
            "misses": cache.misses - misses_before,
        },
        "mean_ipc": round(
            sum(result.ipc for result in results) / len(results), 3)
        if results else 0.0,
    }
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if print_summary:
        print(format_record(record, out))
    return record


def format_record(record: Dict, out: Optional[str] = None) -> str:
    lines: List[str] = [
        f"throughput: {record['cells']} cells "
        f"({len(record['benchmarks'])} benchmarks x "
        f"{len(record['configs'])} configs), workers={record['workers']}",
        f"  trace warm   {record['phases']['trace_warm_s']:.2f} s "
        f"({record['distinct_traces']} distinct traces)",
        f"  sweep        {record['phases']['sweep_s']:.2f} s",
        f"  cells/min    {record['cells_per_min']:.1f}",
        f"  sim-KIPS     {record['sim_kips']:.1f}",
    ]
    if out:
        lines.append(f"  wrote {out}")
    return "\n".join(lines)
