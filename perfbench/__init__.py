"""Repository benchmark: end-to-end and per-layer measurements.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the unmodified ``repro``
package through its public entry points and prints, as its last stdout
line, ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see :mod:`perfbench.batch` and :mod:`perfbench.jobs`):

``fig4_sweep``       ``run_matrix(figure4_configs(), ALL_BENCHMARKS)``,
                     72 cells, 12 traces: more traces than the in-process
                     trace LRU holds, so trace generation and the
                     simulation loop dominate
``explore_lattice``  ``explore(LatticeSpec())``: 32 cells over 16 configs
                     and 2 traces - per-config build cost, the queueing
                     pre-filter and the ranking; trace work near zero
``service_jobs``     a closed loop of ``nproc`` ``ServiceClient`` threads
                     against an ``EmbeddedServer`` with a result store
``fleet_jobs``       the same job stream through ``LocalFleet``
                     (coordinator + ``nproc`` single-process workers, no
                     injected cell delay)

With ``--trace 0`` the timed window is uninstrumented; ``--trace 1``
runs one untraced pass and one traced pass and prints the per-layer
metrics plus ``bench.tracing_overhead``.  Every simulated output is
checked against ground truth (:mod:`perfbench.groundtruth`); a
mismatch prints ``"correct": false`` and exits non-zero.
"""
