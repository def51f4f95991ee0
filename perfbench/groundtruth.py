"""Ground truth: every simulated output checked against a reference.

A cell's output is ``SimulationStats.summary()``; its digest is the
SHA-256 of that dict as canonical JSON (floats round-trip exactly
through the service's JSON payloads, so a cell reaches the same digest
by any path).

For the default seed and one held-out seed the reference is the
committed ``digests.json`` (written by ``make_digests.py``).  For any
other seed - or a cell the committed file lacks - the reference is a
direct :func:`repro.experiments.runner.execute` of each distinct cell,
run outside the timed window in a pool of its own.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.runner import RunResult, RunSpec, execute

#: The default seed and the held-out seed with committed digests.
COMMITTED_SEEDS = (1, 2)

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def cell_key(spec: RunSpec) -> str:
    """The identity of one engine cell across processes."""
    return (f"{spec.benchmark}|{spec.config.name}|{spec.seed}|"
            f"{spec.measure}|{spec.warmup}")


def digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_committed() -> Dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def direct_results(specs: Sequence[RunSpec],
                   workers: int) -> List[RunResult]:
    """``execute`` every spec in a fresh spawn pool, in spec order."""
    if not specs:
        return []
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=max(1, min(workers, len(specs))),
                             mp_context=context) as pool:
        return list(pool.map(execute, specs))


@dataclass
class Reference:
    """Expected digests for one seed, from committed or direct runs."""

    digests: Dict[str, str]
    committed: int = 0
    direct: int = 0


def reference(group: str, seed: int, specs: Sequence[RunSpec],
              workers: int) -> Tuple[Reference, List[RunResult]]:
    """Expected digests for ``specs``; also returns the direct results
    computed for cells the committed file does not cover."""
    committed = {}
    if seed in COMMITTED_SEEDS:
        committed = load_committed().get(group, {}).get(str(seed), {})
    distinct: Dict[str, RunSpec] = {}
    for spec in specs:
        distinct.setdefault(cell_key(spec), spec)
    missing = [spec for key, spec in distinct.items()
               if key not in committed]
    results = direct_results(missing, workers)
    digests = {key: committed[key] for key in distinct if key in committed}
    digests.update((cell_key(result.spec), digest(result.stats.summary()))
                   for result in results)
    return (Reference(digests, committed=len(distinct) - len(missing),
                      direct=len(missing)), results)


@dataclass
class Check:
    """Outputs compared so far and every mismatch found."""

    compared: int = 0
    mismatches: List[str] = field(default_factory=list)

    def cell(self, expected: Dict[str, str], key: str,
             summary: Dict) -> None:
        self.value(expected.get(key), key, summary)

    def value(self, expected: object, label: str, value: object) -> None:
        actual = digest(value)
        if expected == actual:
            self.compared += 1
        else:
            self.fail(f"{label}: digest {actual} != expected {expected}")

    def fail(self, reason: str) -> None:
        self.compared += 1
        self.mismatches.append(reason)

    @property
    def ok(self) -> bool:
        return self.compared > 0 and not self.mismatches
