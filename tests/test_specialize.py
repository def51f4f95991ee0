"""The config-specialized third gear (repro.core.specialize).

Three angles:

* **Property-based golden equivalence** - hypothesis draws (machine
  configuration, benchmark, trace seed) and the three gears must agree
  on the full ``SimulationStats`` fingerprint; with the observer
  attached (which blocks specialization) the CPI stacks must also be
  bit-identical, i.e. the graceful fallback keeps every trace event
  firing.
* **Guards** - every blocker (sanitizer, observer, rename_impl=1,
  paranoid read-legality) keeps the generated stepper out, and the
  mid-run guard (a deadlock-breaking move) despecializes exactly once
  without double-counting a cycle.
* **Code generation** - the generated source is deterministic, bakes
  the configuration constants as literals, and is cached per source.
* **Lifetime** - the default gear is the specialized one, and a
  processor running it is freed by reference counting alone.
"""

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import baseline_rr_256, figure4_configs, ws_rr, \
    wsrs_rc, wsrs_rm
from repro.core.processor import Processor, simulate
from repro.core.specialize import (
    GEARS,
    _CODE_CACHE,
    build_specialized_runner,
    generate_stepper_source,
    specialization_blockers,
)
from repro.frontend.predictors import AlwaysTakenPredictor
from repro.trace.model import OpClass, TraceInstruction
from repro.trace.profiles import spec_trace

MEASURE = 1_200
WARMUP = 400
SLICE = MEASURE + WARMUP + 3_000


def _fingerprint(stats):
    return (stats.summary(),
            list(stats.cluster_allocated),
            list(stats.cluster_issued))


def _run(config, trace, gear, **kwargs):
    processor = Processor(config, iter(trace), gear=gear,
                          check_invariants=False, **kwargs)
    stats = processor.run(measure=MEASURE, warmup=WARMUP)
    return processor, stats


_FACTORIES = {
    "rr": lambda total: baseline_rr_256(),
    "ws_rr": ws_rr,
    "wsrs_rc": wsrs_rc,
    "wsrs_rm": wsrs_rm,
}


@st.composite
def machine_configs(draw):
    factory = draw(st.sampled_from(sorted(_FACTORIES)))
    # 384/4 = 96-register subsets stay above the section 2.3 deadlock
    # borderline for 64 logical registers.
    total = draw(st.sampled_from([384, 512]))
    return _FACTORIES[factory](total)


class TestPropertyEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(config=machine_configs(),
           benchmark=st.sampled_from(["gzip", "gcc", "mcf", "wupwise"]),
           seed=st.integers(min_value=1, max_value=3))
    def test_three_gears_agree_on_stats(self, config, benchmark, seed):
        trace = list(spec_trace(benchmark, SLICE, seed=seed))
        prints = {}
        for gear in GEARS:
            _, stats = _run(config, trace, gear)
            prints[gear] = _fingerprint(stats)
        assert prints["reference"] == prints["horizon"]
        assert prints["reference"] == prints["specialized"]

    @settings(max_examples=3, deadline=None)
    @given(benchmark=st.sampled_from(["gcc", "mcf"]),
           seed=st.integers(min_value=1, max_value=3))
    def test_cpi_stacks_survive_the_fallback(self, benchmark, seed):
        # The observer blocks specialization, so requesting the third
        # gear must degrade gracefully: identical stats *and* identical
        # CPI stacks, with every cycle accounted exactly once.
        config = figure4_configs()[4]
        trace = list(spec_trace(benchmark, SLICE, seed=seed))
        ref_proc, ref = _run(config, trace, "reference", observe=True)
        spec_proc, spec = _run(config, trace, "specialized", observe=True)
        assert spec_proc.gear != "specialized"
        assert _fingerprint(ref) == _fingerprint(spec)
        ref_causes = ref_proc.obs.snapshot()["causes"]
        spec_causes = spec_proc.obs.snapshot()["causes"]
        assert ref_causes == spec_causes
        assert sum(spec_causes.values()) == spec.cycles


class TestEntryGuards:
    def test_clean_processor_specializes(self):
        processor = Processor(figure4_configs()[0],
                              iter(spec_trace("gzip", SLICE)),
                              gear="specialized", check_invariants=False)
        assert specialization_blockers(processor) == []
        assert processor.gear == "specialized"

    def test_sanitizer_blocks(self):
        processor = Processor(figure4_configs()[0],
                              iter(spec_trace("gzip", SLICE)),
                              gear="specialized", check_invariants=False,
                              sanitize=True)
        assert any("sanitizer" in blocker
                   for blocker in specialization_blockers(processor))
        assert processor.gear != "specialized"

    def test_observer_blocks(self):
        processor = Processor(figure4_configs()[0],
                              iter(spec_trace("gzip", SLICE)),
                              gear="specialized", check_invariants=False,
                              observe=True)
        assert any("observer" in blocker
                   for blocker in specialization_blockers(processor))
        assert processor.gear != "specialized"

    def test_recycling_renamer_blocks(self):
        processor = Processor(wsrs_rc(512, rename_impl=1),
                              iter(spec_trace("gzip", SLICE)),
                              gear="specialized", check_invariants=False)
        assert any("rename_impl=1" in blocker
                   for blocker in specialization_blockers(processor))
        assert processor.gear != "specialized"

    def test_paranoid_wsrs_blocks_but_plain_ws_does_not(self):
        paranoid = Processor(wsrs_rc(512),
                             iter(spec_trace("gzip", SLICE)),
                             gear="specialized", check_invariants=True)
        assert paranoid.gear != "specialized"
        ws = Processor(ws_rr(512), iter(spec_trace("gzip", SLICE)),
                       gear="specialized", check_invariants=True)
        assert ws.gear == "specialized"

    def test_blocked_runs_stay_bit_identical(self):
        # A blocked "specialized" request must not change behaviour.
        trace = list(spec_trace("gcc", SLICE))
        config = wsrs_rm(512)
        _, ref = _run(config, trace, "reference", sanitize=True)
        spec_proc, spec = _run(config, trace, "specialized",
                               sanitize=True)
        assert spec_proc.gear != "specialized"
        assert _fingerprint(ref) == _fingerprint(spec)

    def test_unknown_gear_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            Processor(figure4_configs()[0], iter([]), gear="overdrive")


class TestMidRunGuard:
    """A deadlock-breaking move trips the specialized envelope."""

    CONFIG = None

    @classmethod
    def _tight_moves_config(cls):
        if cls.CONFIG is None:
            cls.CONFIG = ws_rr(84, deadlock_policy="moves",
                               fp_physical_registers=160)
        return cls.CONFIG

    def test_fallback_is_bit_identical_with_no_double_counting(self):
        config = self._tight_moves_config()
        trace = list(spec_trace("gcc", SLICE))
        ref_proc, ref = _run(config, trace, "reference")
        spec_proc, spec = _run(config, trace, "specialized")
        assert ref.deadlock_moves > 0  # the guard actually fired
        assert spec_proc.despecializations == 1
        assert spec_proc.gear == "horizon"  # jumps resume post-trip
        # cycles (inside summary()) equal => no cycle double-counted or
        # lost across the mid-run hand-off.
        assert _fingerprint(ref) == _fingerprint(spec)

    def test_despecialization_is_permanent_for_the_run(self):
        config = self._tight_moves_config()
        processor, _ = _run(config, list(spec_trace("gcc", SLICE)),
                            "specialized")
        assert processor._specialized_run is None
        assert processor.despecializations == 1


@pytest.mark.parametrize("muldiv", [
    dict(pipelined_muldiv=False),
    dict(shared_muldiv=True),
    dict(pipelined_muldiv=False, shared_muldiv=True),
], ids=["private-unpipelined", "shared-pipelined", "shared-unpipelined"])
class TestTrackedMuldivUnits:
    """Busy multiply/divide units: the issuing cluster's unit is the one
    marked busy, and its release is an event-horizon candidate."""

    def test_gears_agree_on_a_mixed_trace(self, muldiv):
        config = baseline_rr_256(**muldiv)
        trace = list(spec_trace("gcc", 12_000))
        prints = {}
        for gear in ("reference", "specialized"):
            processor = Processor(config, iter(trace), gear=gear,
                                  check_invariants=False)
            prints[gear] = _fingerprint(
                processor.run(measure=6_000, warmup=2_000))
            assert processor.gear == gear
        assert prints["reference"] == prints["specialized"]

    def test_muldiv_only_trace_waits_for_the_unit(self, muldiv):
        config = baseline_rr_256(**muldiv)
        trace = [TraceInstruction(OpClass.IMULDIV, dest=1 + i % 16,
                                  src1=20, src2=21) for i in range(100)]
        prints = {}
        for gear in ("reference", "specialized"):
            processor = Processor(config, iter(trace), gear=gear,
                                  predictor=AlwaysTakenPredictor(),
                                  check_invariants=False)
            prints[gear] = _fingerprint(processor.run(measure=100))
        assert prints["reference"] == prints["specialized"]


class TestCodeGeneration:
    def test_source_is_deterministic(self):
        config = figure4_configs()[0]
        assert generate_stepper_source(config) \
            == generate_stepper_source(config)

    def test_constants_are_baked(self):
        config = wsrs_rc(512)
        source = generate_stepper_source(config)
        # Subset routing appears as literal arithmetic, not attribute
        # lookups on the config object.
        assert "// %d" % config.int_subset_size in source
        assert "proc.config" not in source

    def test_rc_rm_steering_is_inlined(self):
        # The paper's RC/RM random policies are baked into the loop as
        # subset arithmetic plus direct draws on the allocator's RNG;
        # the allocate() call only survives for other policies.
        for factory in (wsrs_rc, wsrs_rm):
            source = generate_stepper_source(factory(512))
            assert "allocate(" not in source
            assert "rng_rand" in source
        assert "allocate(" in generate_stepper_source(
            replace(wsrs_rc(512), allocation_policy="least_loaded"))

    def test_compiled_code_is_cached(self):
        config = figure4_configs()[0]
        trace = iter(spec_trace("gzip", 64))
        Processor(config, trace, gear="specialized",
                  check_invariants=False)
        before = len(_CODE_CACHE)
        Processor(config, iter(spec_trace("gzip", 64)),
                  gear="specialized", check_invariants=False)
        assert len(_CODE_CACHE) == before

    def test_build_returns_none_when_blocked(self):
        processor = Processor(figure4_configs()[0], iter([]),
                              sanitize=True)
        assert build_specialized_runner(processor) is None


class TestDefaultGearLifetime:
    def test_specialized_is_the_default_gear(self):
        processor = Processor(figure4_configs()[0], iter([]),
                              check_invariants=False)
        assert processor.gear == "specialized"

    def test_finished_processor_is_freed_without_a_collection(self):
        # The stepper must not close over its processor: a reference
        # cycle would keep every finished machine alive until the next
        # full garbage collection.
        gc.disable()
        try:
            processor = Processor(figure4_configs()[0],
                                  iter(spec_trace("gzip", SLICE)),
                                  check_invariants=False)
            processor.run(measure=MEASURE, warmup=WARMUP)
            assert processor.gear == "specialized"
            alive = weakref.ref(processor)
            del processor
            assert alive() is None
        finally:
            gc.enable()
