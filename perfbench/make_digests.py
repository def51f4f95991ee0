"""Regenerate ``digests.json``: ``python3 perfbench/make_digests.py``.

For each committed seed it executes every cell the workloads can reach
directly (``repro.experiments.runner.execute``, no pool engine, no
service) and stores the summary digests, plus the digest of the explore
payload.  Job-stream cells cover the first two clients' streams; clients
beyond those are checked against direct runs at benchmark time.
Regenerate only when the simulator's statistics are meant to change.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    sys.path.insert(0, path)

COMMITTED_CLIENTS = 2


def main() -> int:
    from perfbench import batch, groundtruth, host, jobs

    workers = host.nproc()
    out = {}
    for seed in groundtruth.COMMITTED_SEEDS:
        for workload in ("fig4_sweep", "explore_lattice"):
            results = groundtruth.direct_results(
                batch.specs_for(workload, seed), workers)
            digests = {groundtruth.cell_key(result.spec):
                       groundtruth.digest(result.stats.summary())
                       for result in results}
            if workload == "explore_lattice":
                digests["frontier"] = groundtruth.digest(
                    batch.frontier_reference(seed, results))
            out.setdefault(workload, {})[str(seed)] = digests
        specs = {}
        for stream in jobs.job_streams(seed, COMMITTED_CLIENTS):
            for op in stream:
                for spec in jobs.request_specs(op.request):
                    specs.setdefault(groundtruth.cell_key(spec), spec)
        results = groundtruth.direct_results(list(specs.values()), workers)
        out.setdefault("jobs", {})[str(seed)] = {
            groundtruth.cell_key(result.spec):
            groundtruth.digest(result.stats.summary())
            for result in results}
    with open(groundtruth.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
