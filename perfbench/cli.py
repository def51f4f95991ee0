"""Command line: run one workload, check it, print the metrics."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
from typing import Callable, Dict, List, Tuple

from perfbench import host
from perfbench.groundtruth import Check
from perfbench.metrics import END_TO_END, PER_LAYER, REPORT_ONLY, Reading, \
    median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fig4_sweep", "explore_lattice", "service_jobs", "fleet_jobs")


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Run:
    """Everything one invocation measured."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.readings: Dict[str, Reading] = {}
        self.layers: Dict[str, float] = {}
        self.record: Dict = {"workload": workload, "seed": seed,
                             "trace": int(trace)}
        self.attempted = 0
        self.failed = 0
        self.check = Check()


def setup_seconds(modules: List[str], start: Callable[[], float]) -> Reading:
    """Median interpreter start + imports plus median system start-up.

    The batch workloads start their process pool inside each timed call
    (``run_matrix`` builds it), so their ``start`` is zero."""
    imports = host.import_seconds(SRC, modules)
    starts = [start() for _ in range(host.SETUP_REPEATS)]
    return Reading(median(imports) + median(starts), host.SETUP_REPEATS)


def run_batch(run: Run, seconds: float, scratch: str) -> None:
    from perfbench import batch

    workers = host.nproc()
    run.readings["setup_s"] = setup_seconds(batch.setup_modules(),
                                            lambda: 0.0)
    expected = len(batch.specs_for(run.workload, run.seed))
    if run.trace:
        plain = batch.timed_call(run.workload, run.seed)
        traced, run.layers = batch.traced_call(run.workload, run.seed,
                                               scratch)
        reps = [plain, traced]
        run.layers["bench.tracing_overhead"] = overhead(
            plain.instructions / plain.wall,
            traced.instructions / traced.wall)
    else:
        reps = batch.run_window(run.workload, run.seed, seconds)
        run.readings.update(batch.end_to_end(reps))
    run.readings["peak_rss_mb"] = Reading(host.peak_rss_mb(), 1)
    ops = batch.operations(reps, expected)
    run.attempted, run.failed = ops.attempted, ops.failed
    run.readings["failed_ratio"] = Reading(ops.ratio, ops.attempted)
    run.record["cold_state"] = reps[0].cold
    run.record["calls"] = len(reps)
    run.record["reference"] = batch.check(run.workload, run.seed, reps,
                                          workers, run.check)


def run_jobs(run: Run, seconds: float, scratch: str) -> None:
    from perfbench import jobs

    workers = host.nproc()
    system_class = jobs.SYSTEMS[run.workload]
    streams = jobs.job_streams(run.seed, workers)
    starters: List = []

    def start_one() -> float:
        if starters:
            starters[-1].stop()
        starters.append(system_class(workers, scratch))
        return jobs.start_timed(starters[-1])

    try:
        run.readings["setup_s"] = setup_seconds(
            jobs.setup_modules(run.workload), start_one)
        system = starters[-1]
        if run.trace:
            # Half the window untraced for the overhead baseline, half
            # traced on a fresh system (empty result store again).
            plain = jobs.drive_stream(system.url, run.seed, streams,
                                      seconds / 2, 0)
            system.stop()
            from perfbench.tracing import Tracer, core_metrics, read_cells

            tracer = Tracer()
            spans_dir = tempfile.mkdtemp(prefix="spans-", dir=scratch)
            if run.workload == "service_jobs":
                system = jobs.ServiceSystem(workers, scratch, tracer,
                                            spans_dir)
            else:
                system = jobs.FleetSystem(workers, scratch)
            starters.append(system)
            url = system.start()
            traced = jobs.drive_stream(url, run.seed, streams, seconds / 2,
                                       0, probe_healthz=True)
            system.stop()
            drives = [plain, traced]
            run.layers = jobs.layer_metrics(system_class.name, traced,
                                            tracer)
            if run.workload == "service_jobs":
                run.layers.update(core_metrics(read_cells(spans_dir)))
            run.layers["bench.tracing_overhead"] = overhead(
                len(plain.samples) / plain.wall,
                len(traced.samples) / traced.wall)
        else:
            drive = jobs.drive_stream(system.url, run.seed, streams,
                                      seconds, jobs.CLASS_SAMPLES)
            system.stop()
            drives = [drive]
            run.readings.update(jobs.end_to_end(drive))
    finally:
        for system in starters:
            system.stop()
    run.readings["peak_rss_mb"] = Reading(host.peak_rss_mb(), 1)
    ops = jobs.operations(drives)
    run.attempted, run.failed = ops.attempted, ops.failed
    run.readings["failed_ratio"] = Reading(ops.ratio, ops.attempted)
    run.record["cold_state"] = {"result_store": "empty directory per system"}
    run.record["jobs"] = [len(drive.samples) for drive in drives]
    if run.workload == "fleet_jobs":
        run.record["injected_cell_delay_ms"] = 0
    run.record["reference"] = jobs.check(run.seed, drives, workers,
                                         run.check)


def overhead(untraced: float, traced: float) -> float:
    """Relative loss of the headline rate under tracing: ``sim_kips`` on
    the batch workloads, ``jobs_per_s`` on the job streams."""
    return (untraced - traced) / untraced if untraced else 0.0


def result_line(run: Run) -> Tuple[Dict, List[str]]:
    lines = []
    catalogue = PER_LAYER if run.trace else END_TO_END
    metrics = {}
    for metric in catalogue:
        if run.trace:
            value = float(run.layers.get(metric.name, 0.0))
            lines.append(f"layer  {metric.name:<28s} {value:>14.6f} "
                         f"{metric.unit}")
        else:
            reading = run.readings[metric.name]
            value = reading.value
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    for metric in END_TO_END + REPORT_ONLY:
        reading = run.readings.get(metric.name)
        if reading is None:
            lines.append(f"metric {metric.name:<28s} {'n/a':>14s} "
                         f"{metric.unit} (not measured on this run)")
        else:
            lines.append(f"metric {metric.name:<28s} {reading.value:>14.6f} "
                         f"{metric.unit} n={reading.samples}")
    correct = run.check.ok
    return ({"correct": correct, "attempted": run.attempted,
             "failed": run.failed, "metrics": metrics}, lines)


def main(argv: List[str]) -> int:
    args = parse(argv)
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    # Keep every temporary file of this run (the fleet's stores, spawned
    # workers' files) inside the checkout.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        run = Run(args.workload, args.seed, bool(args.trace))
        run.record["env_cleared"] = sorted(
            name for name, value in host.clear_env().items()
            if value is not None)
        run.record["host"] = host.host_record(ROOT)
        if args.workload in ("fig4_sweep", "explore_lattice"):
            run_batch(run, args.seconds, scratch)
        else:
            run_jobs(run, args.seconds, scratch)
    finally:
        host.stop_helper_processes()
        shutil.rmtree(scratch, ignore_errors=True)
    result, lines = result_line(run)
    run.record["compared_outputs"] = run.check.compared
    run.record["mismatches"] = run.check.mismatches[:20]
    for line in lines:
        print(line)
    print(json.dumps({"record": run.record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1
