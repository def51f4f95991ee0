"""Golden equivalence and behaviour of the event-horizon fast path.

The fast path (processor.py: ``Processor._try_jump``) must be invisible
in every statistic: the acceptance bar is a ``SimulationStats`` summary
- IPC, every stall counter, deadlock moves, the per-cluster histograms -
bit-identical to the reference per-cycle stepper, on every section-5
configuration and with the pipeline sanitizer enabled.
"""

import pytest

from repro.config import figure4_configs, wsrs_rc
from repro.core.processor import DeadlockedPipeline, Processor, simulate
from repro.trace.profiles import spec_trace

MEASURE = 3_000
WARMUP = 3_000


def _trace(benchmark: str):
    return list(spec_trace(benchmark, MEASURE + WARMUP + 3_000))


def _fingerprint(stats):
    return (stats.summary(),
            list(stats.cluster_allocated),
            list(stats.cluster_issued))


def _run(config, trace, gear, sanitize=False):
    processor = Processor(config, iter(trace), gear=gear,
                          sanitize=True if sanitize else None)
    stats = processor.run(measure=MEASURE, warmup=WARMUP)
    return processor, stats


class TestGoldenEquivalence:
    @pytest.mark.parametrize("config", figure4_configs(),
                             ids=lambda c: c.name)
    def test_all_section5_configs_bit_identical(self, config):
        trace = _trace("gcc")  # branchy: exercises penalty-window jumps
        _, ref = _run(config, trace, gear="reference")
        fast_proc, fast = _run(config, trace, gear="horizon")
        assert _fingerprint(ref) == _fingerprint(fast)
        assert fast_proc.horizon_jumps > 0

    def test_memory_bound_trace_bit_identical(self):
        trace = _trace("mcf")  # long memory stalls: the big jumps
        config = figure4_configs()[0]
        _, ref = _run(config, trace, gear="reference")
        fast_proc, fast = _run(config, trace, gear="horizon")
        assert _fingerprint(ref) == _fingerprint(fast)
        assert fast_proc.horizon_cycles_skipped > fast_proc.horizon_jumps

    @pytest.mark.parametrize("config", [figure4_configs()[0],
                                        figure4_configs()[4]],
                             ids=lambda c: c.name)
    def test_sanitized_runs_stay_identical(self, config):
        trace = _trace("gcc")
        ref_proc, ref = _run(config, trace, gear="reference", sanitize=True)
        fast_proc, fast = _run(config, trace, gear="horizon", sanitize=True)
        assert _fingerprint(ref) == _fingerprint(fast)
        # The jump-aware sanitizer still accounts one check per cycle.
        assert ref_proc.sanitizer.checks == fast_proc.sanitizer.checks


class TestGearSelection:
    def test_reference_gear_never_jumps(self):
        trace = _trace("gcc")
        ref_proc, _ = _run(figure4_configs()[0], trace, gear="reference")
        assert ref_proc.horizon_jumps == 0
        assert ref_proc.horizon_cycles_skipped == 0

    def test_recycling_renamer_disables_fast_path(self):
        # rename_impl=1 rotates free-list state every idle cycle, so
        # skipping cycles would not be invariant; the gate is automatic.
        config = wsrs_rc(512, rename_impl=1)
        processor = Processor(config, iter(_trace("gzip")), gear="horizon")
        assert processor.gear == "reference"
        stats = processor.run(measure=MEASURE, warmup=WARMUP)
        assert processor.horizon_jumps == 0
        assert stats.committed == MEASURE

    def test_simulate_helper_exposes_the_knob(self):
        trace = _trace("gzip")
        ref = simulate(figure4_configs()[0], iter(trace), measure=MEASURE,
                       warmup=WARMUP, gear="reference")
        fast = simulate(figure4_configs()[0], iter(trace), measure=MEASURE,
                        warmup=WARMUP, gear="horizon")
        assert _fingerprint(ref) == _fingerprint(fast)


class TestDeadlockProof:
    def test_horizon_without_events_raises_immediately(self):
        # A branch stall with nothing in flight can never clear: the
        # reference stepper would spin _PROGRESS_LIMIT cycles before
        # giving up, the fast path proves the deadlock on the spot.
        processor = Processor(figure4_configs()[0], iter([]),
                              gear="horizon")
        processor._waiting_branch = object()  # never-resolving branch
        with pytest.raises(DeadlockedPipeline, match="event horizon"):
            processor._try_jump()


class TestRunSpecPlumbing:
    def test_runspec_fast_path_round_trip(self):
        from repro.experiments.runner import RunSpec, execute

        config = figure4_configs()[0]
        results = {}
        for gear in ("reference", "horizon"):
            spec = RunSpec(config=config, benchmark="vpr",
                           measure=MEASURE, warmup=WARMUP, gear=gear)
            results[gear] = execute(spec).stats
        assert (_fingerprint(results["reference"])
                == _fingerprint(results["horizon"]))

    def test_sweep_cells_default_to_fast_unparanoid(self):
        from repro.experiments.runner import RunSpec

        spec = RunSpec(config=figure4_configs()[0], benchmark="gzip")
        assert spec.gear == "specialized"
        assert not spec.check_invariants
