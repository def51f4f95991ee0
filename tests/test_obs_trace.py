"""Tests for the structured pipeline trace (repro.obs.tracer/analyzer)."""

import gzip
import json

import pytest

from repro.config import wsrs_rc
from repro.core.processor import Processor
from repro.obs.analyzer import format_summary, read_events, summarize
from repro.obs.tracer import PipelineTracer, TraceSchemaError
from repro.trace.profiles import spec_trace

MEASURE = 2_000


def _traced_run(path, gear="horizon", **tracer_kwargs):
    config = wsrs_rc(512)
    with PipelineTracer(str(path), **tracer_kwargs) as tracer:
        processor = Processor(config, spec_trace("gzip", MEASURE + 4_096),
                              check_invariants=False, gear=gear,
                              tracer=tracer)
        stats = processor.run(measure=MEASURE)
        tracer.close(stats)
    return stats


class TestTracerRoundTrip:
    def test_full_window_counts_match_stats(self, tmp_path):
        path = tmp_path / "run.jsonl"
        stats = _traced_run(path)
        summary = summarize(str(path))
        assert summary["events"]["D"] == stats.dispatched
        assert summary["events"]["I"] == stats.issued
        assert summary["events"]["R"] == stats.committed
        assert summary["trailer"]["cycles"] == stats.cycles
        assert summary["trailer"]["committed"] == stats.committed
        assert sum(summary["op_mix"].values()) == stats.dispatched
        assert summary["cluster_dispatch"] == stats.cluster_allocated

    def test_gzip_roundtrip(self, tmp_path):
        plain = tmp_path / "run.jsonl"
        packed = tmp_path / "run.jsonl.gz"
        _traced_run(plain)
        _traced_run(packed)
        with open(plain, "rb") as handle:
            raw = handle.read()
        with gzip.open(packed, "rb") as handle:
            unpacked = handle.read()
        assert raw == unpacked
        assert packed.stat().st_size < plain.stat().st_size

    def test_event_ordering_per_uop(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        dispatch, issue = {}, {}
        for event in read_events(str(path)):
            if event["t"] == "D":
                dispatch[event["q"]] = event["c"]
            elif event["t"] == "I":
                issue[event["q"]] = event["c"]
                assert event["c"] > dispatch[event["q"]]
            elif event["t"] == "R":
                assert event["c"] >= issue[event["q"]]

    def test_gears_emit_identical_pipeline_events(self, tmp_path):
        """Dispatch/issue/commit never happen inside a dead window, so
        the two gears' traces differ only in jump records."""
        fast_path = tmp_path / "fast.jsonl"
        reference = tmp_path / "ref.jsonl"
        _traced_run(fast_path, gear="horizon")
        _traced_run(reference, gear="reference")
        fast_events = [e for e in read_events(str(fast_path))
                       if e["t"] in ("D", "I", "R")]
        ref_events = [e for e in read_events(str(reference))
                      if e["t"] in ("D", "I", "R")]
        assert fast_events == ref_events
        jumps = [e for e in read_events(str(fast_path)) if e["t"] == "J"]
        assert jumps, "gzip under the fast path must jump at least once"
        assert all(e["to"] > e["c"] for e in jumps)


class TestSampling:
    def test_window_bounds_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path, start=200, window=300)
        cycles = [event["c"] for event in read_events(str(path))
                  if event["t"] in ("D", "I", "R", "J")]
        assert cycles, "the sampled window must capture events"
        assert min(cycles) >= 200
        assert max(cycles) < 500

    def test_periodic_windows(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path, start=0, window=100, every=400)
        cycles = [event["c"] for event in read_events(str(path))
                  if event["t"] in ("D", "I", "R", "J")]
        assert cycles
        assert all(cycle % 400 < 100 for cycle in cycles)

    def test_sampling_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PipelineTracer(str(tmp_path / "x.jsonl"), start=-1)
        with pytest.raises(ValueError):
            PipelineTracer(str(tmp_path / "x.jsonl"), window=0)
        with pytest.raises(ValueError):
            PipelineTracer(str(tmp_path / "x.jsonl"), every=100)
        with pytest.raises(ValueError):
            PipelineTracer(str(tmp_path / "x.jsonl"), window=100,
                           every=50)


class TestSchema:
    def test_header_first_and_versioned(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        events = list(read_events(str(path)))
        assert events[0]["t"] == "H"
        assert events[0]["v"] == 1
        assert events[0]["config"] == "WSRS RC S 512"
        assert events[-1]["t"] == "E"

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"t": "H", "v": 99, "config": "x",
                                     "clusters": 4, "start": 0,
                                     "window": None, "every": None}))
            handle.write("\n")
        with pytest.raises(TraceSchemaError):
            summarize(str(path))

    def test_headerless_stream_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"t": "D", "c": 0, "q": 0,
                                     "op": "IALU", "cl": 0, "sw": 0}))
            handle.write("\n")
        with pytest.raises(TraceSchemaError):
            summarize(str(path))

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceSchemaError):
            summarize(str(path))

    def test_format_summary_mentions_key_fields(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _traced_run(path)
        text = format_summary(summarize(str(path)))
        assert "WSRS RC S 512" in text
        assert "dispatch=" in text
        assert "run totals" in text
