"""Tests of the benchmark harness itself (not of the simulator)."""

import json
import os

import pytest

from perfbench import groundtruth, host, jobs
from perfbench.metrics import END_TO_END, PER_LAYER, REPORT_ONLY, \
    Operations, min_samples, percentile, samples_beyond, valid_name, \
    valid_unit
from perfbench.tests.conftest import ROOT


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- metric names --------------------------------------------------------


def test_metric_names_and_units_are_valid_and_unique():
    catalogue = END_TO_END + REPORT_ONLY + PER_LAYER
    names = [metric.name for metric in catalogue]
    assert len(names) == len(set(names))
    for metric in catalogue:
        assert valid_name(metric.name), metric.name
        assert valid_unit(metric.unit), metric.unit


@pytest.mark.parametrize("name", ["", ".lead", "a b", "x" * 65, "é"])
def test_invalid_names_are_rejected(name):
    assert not valid_name(name)


def test_benchmark_json_matches_the_catalogue():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == [(m.name, m.unit, m.better) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    from perfbench.cli import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- percentile / sample-count rule -------------------------------------


def test_p90_needs_one_hundred_samples():
    assert min_samples(0.9) == 100
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)
    values = list(range(1, 101))
    assert percentile(values, 0.9) == pytest.approx(90.9)
    assert percentile(values, 0.5) == pytest.approx(50.5)


def test_stream_classes_reach_the_sample_rule():
    assert jobs.CLASS_SAMPLES == 100
    for stream in jobs.job_streams(1, 2):
        fresh = sum(op.fresh for op in stream)
        assert fresh == jobs.FRESH_PER_CLIENT
        assert len(stream) - fresh >= jobs.CLASS_SAMPLES // 2


# -- failed_ratio ---------------------------------------------------------


def test_failed_ratio_counts_refusals_and_failures():
    ops = Operations()
    ops.job("done")
    assert (ops.attempted, ops.failed, ops.ratio) == (1, 0, 0.0)
    ops.job("done", refusals=2)            # two 429s, then accepted
    assert (ops.attempted, ops.failed) == (4, 2)
    ops.job("failed")
    ops.job(None, transport_retries=1)    # client gave up
    assert (ops.attempted, ops.failed) == (7, 5)
    assert ops.ratio == pytest.approx(5 / 7)
    cells = Operations()
    cells.cells(72, ok=True)
    cells.cells(72, ok=False)
    assert (cells.attempted, cells.failed) == (144, 72)


# -- job stream -----------------------------------------------------------


def test_job_stream_is_seeded_and_keys_are_disjoint():
    assert jobs.job_streams(7, 2) == jobs.job_streams(7, 2)
    assert jobs.job_streams(7, 2) != jobs.job_streams(8, 2)
    streams = jobs.job_streams(7, 2)
    fresh_keys = []
    for stream in streams:
        own = set()
        for op in stream:
            key = json.dumps(op.request, sort_keys=True)
            if op.fresh:
                assert key not in own
                own.add(key)
            else:
                assert key in own   # repeats reuse this client's keys only
        fresh_keys.append(own)
    assert not fresh_keys[0] & fresh_keys[1]
    kinds = [op.request["kind"] for op in streams[0] if op.fresh]
    assert kinds.count("matrix") == len(kinds) // jobs.MATRIX_EVERY


# -- ground truth ---------------------------------------------------------


def _one_cell():
    from perfbench import batch

    spec = batch.specs_for("fig4_sweep", 1)[0]
    from repro.experiments.runner import execute

    return spec, execute(spec).stats.summary()


def test_committed_digest_matches_a_direct_run():
    spec, summary = _one_cell()
    committed = groundtruth.load_committed()["fig4_sweep"]["1"]
    check = groundtruth.Check()
    check.cell(committed, groundtruth.cell_key(spec), summary)
    assert check.ok


def test_perturbed_digest_fails_the_check():
    spec, summary = _one_cell()
    key = groundtruth.cell_key(spec)
    committed = dict(groundtruth.load_committed()["fig4_sweep"]["1"])
    committed[key] = "0" * 16
    check = groundtruth.Check()
    check.cell(committed, key, summary)
    assert not check.ok and key in check.mismatches[0]


def test_perturbed_output_fails_the_check():
    spec, summary = _one_cell()
    committed = groundtruth.load_committed()["fig4_sweep"]["1"]
    check = groundtruth.Check()
    check.cell(committed, groundtruth.cell_key(spec),
               dict(summary, cycles=summary["cycles"] + 1))
    assert not check.ok


def test_an_empty_check_is_not_correct():
    assert not groundtruth.Check().ok


def test_traced_cell_matches_execute_and_records_its_spans(tmp_path):
    from repro.core.processor import Processor
    from repro.core.stats import SimulationStats
    from repro.trace.cache import TraceCache

    from perfbench.tracing import TracedCell, core_metrics, read_cells

    wrapped = (TraceCache.get, Processor.__init__, Processor.run,
               SimulationStats.reset_measurement)
    spec, summary = _one_cell()
    result = TracedCell(str(tmp_path))(spec)
    assert result.stats.summary() == summary
    assert (TraceCache.get, Processor.__init__, Processor.run,
            SimulationStats.reset_measurement) == wrapped
    [record] = read_cells(str(tmp_path))
    assert record["key"] == groundtruth.cell_key(spec)
    assert record["start"] <= record["end"]
    assert record["build_s"] > 0
    assert record["warmup_s"] > 0 and record["measure_s"] > 0
    assert record["start"] + record["build_s"] + record["warmup_s"] \
        + record["measure_s"] <= record["end"]
    metrics = core_metrics([record])
    assert metrics["core.cells.horizon"] == 1
    assert metrics["core.loop_kips"] > 0


# -- process hygiene -----------------------------------------------------


def test_stop_helper_processes_reaps_the_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker

    process = multiprocessing.get_context("spawn").Process(target=int)
    process.start()
    process.join()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    host.stop_helper_processes()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker, os.WNOHANG)
