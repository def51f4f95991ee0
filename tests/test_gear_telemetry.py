"""Every sweep path runs the specialized gear unless a guard says why not.

``RunResult.gear`` reports the gear a cell actually finished on.  For
each path that produces cells - the Figure 4 matrix, a service job and
the explorer's survivors - a cell on another gear must be explained by
an entry guard (:func:`repro.core.specialize.specialization_blockers`)
or by a mid-run guard trip (``RunResult.despecializations``).
"""

from repro.config import figure4_configs
from repro.core.processor import Processor
from repro.core.specialize import specialization_blockers
from repro.experiments import figure4
from repro.experiments.runner import RunSpec, execute, execute_many
from repro.explore.explorer import survivor_specs
from repro.explore.lattice import LatticeSpec
from repro.service.jobs import cell_payload, cell_specs, parse_request

TINY = dict(measure=300, warmup=100)


def _blockers(spec: RunSpec):
    processor = Processor(spec.config, iter(()),
                          check_invariants=spec.check_invariants,
                          sanitize=True if spec.sanitize else None,
                          observe=spec.observe, gear="horizon")
    return specialization_blockers(processor)


def _unexplained(results):
    """Cells off the specialized gear with no guard reason."""
    return [(result.spec.benchmark, result.spec.config.name, result.gear)
            for result in results
            if result.gear != "specialized"
            and not result.despecializations
            and not _blockers(result.spec)]


class TestSweepPathsReportTheSpecializedGear:
    def test_every_figure4_cell(self):
        report = figure4.run(print_table=False, workers=2, **TINY)
        results = [result for row in report.results.values()
                   for result in row.values()]
        assert len(results) == 12 * len(figure4_configs())
        assert _unexplained(results) == []
        assert all(result.gear == "specialized" for result in results)

    def test_service_simulate_job_cells(self):
        request = parse_request({"kind": "simulate", "benchmark": "gzip",
                                 "config": "WSRS RC S 512", "seed": 1,
                                 **TINY})
        results = [execute(spec) for spec in cell_specs(request)]
        assert _unexplained(results) == []
        assert [result.gear for result in results] == ["specialized"]

    def test_explore_survivors(self):
        lattice = LatticeSpec(specializations=("none", "ws", "wsrs"),
                              clusters=(4,), registers=(128,),
                              widths=(8,),
                              steerings=("round_robin",
                                         "random_commutative"),
                              deadlocks=("auto",), benchmarks=("gzip",))
        specs = survivor_specs(lattice, budget=3, prefilter=False, **TINY)
        results = execute_many(specs, workers=2)
        assert _unexplained(results) == []
        gears = {result.spec.config.rename_impl: result.gear
                 for result in results}
        # Renaming implementation 1 (the lattice's WSRS cells) is an
        # entry guard; every other survivor specializes.
        assert gears == {1: "reference", 2: "specialized"}

    def test_telemetry_stays_out_of_service_payloads(self):
        config = figure4_configs()[0]
        fast, reference = (
            execute(RunSpec(config=config, benchmark="gzip", gear=gear,
                            **TINY))
            for gear in ("specialized", "reference"))
        assert (fast.gear, reference.gear) == ("specialized", "reference")
        assert cell_payload(fast) == cell_payload(reference)
