"""Spans for the traced run, recorded from the benchmark's own files.

Nothing here is imported into an untraced timed window.  The traced run
times calls into each layer's public functions:

* in the parent, :class:`Tracer` spans around ``warm_trace_cache``,
  ``plan``, ``frontier_payload`` and the client calls (``patched`` swaps
  a module attribute for a timing wrapper and restores it);
* in the pool children, :class:`TracedCell` wraps the cell entry
  point (``repro.experiments.runner.execute``, or the ``Scheduler``'s
  ``cell_runner``): it calls the real ``execute`` and times the trace
  and core layer calls inside it.
  Each child appends one JSON line per cell to ``<spans_dir>/<pid>.jsonl``
  after the cell ends; the parent reads them back with
  :func:`read_cells`.

All timestamps are ``time.monotonic()``, one clock for every process of
the host, so child and parent spans line up.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.processor import Processor
from repro.core.stats import SimulationStats
from repro.experiments import runner
from repro.experiments.runner import RunResult, RunSpec
from repro.service.store import ResultStore
from repro.trace.cache import TraceCache

from perfbench.groundtruth import cell_key


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[str] = None


@dataclass
class Tracer:
    """In-memory spans and samples of the parent process."""

    spans: List[Span] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        stack.append(name)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(Span(name, start, end, parent))

    def wrap(self, name: str, function: Callable) -> Callable:
        def timed(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return timed

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def named(self, name: str, parent: object = ...) -> List[Span]:
        return [span for span in self.spans if span.name == name
                and (parent is ... or span.parent == parent)]


@contextlib.contextmanager
def patched(target: object, name: str, value: object) -> Iterator[None]:
    """Temporarily replace ``target.name`` (a module or class attribute)."""
    original = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        setattr(target, name, original)


#: The engine's own cell entry point, captured before a traced run swaps
#: ``runner.execute`` for a :class:`TracedCell`.
_EXECUTE = runner.execute


class TracedCell:
    """Cell entry point for pool children that times each layer call.

    Calls the real :func:`repro.experiments.runner.execute` and, for the
    length of the call, wraps the layer functions it reaches:
    ``TraceCache.get`` (trace generation), ``Processor.__init__`` (build,
    including stepper compile) and ``Processor.run``, split into warm-up
    and measured slice where ``SimulationStats.reset_measurement`` is
    called.  The wrappers sit on the classes, so they see these layers
    however ``execute`` reaches them.  Picklable: it carries only the
    spans directory.
    """

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = spans_dir

    def __call__(self, spec: RunSpec) -> RunResult:
        marks: Dict[str, float] = {"trace_s": 0.0, "build_s": 0.0}
        misses: List[bool] = []
        processors: List[Processor] = []
        get, init = TraceCache.get, Processor.__init__
        run, reset = Processor.run, SimulationStats.reset_measurement

        def timed_get(cache, *args, **kwargs):
            before = cache.misses
            start = time.monotonic()
            try:
                return get(cache, *args, **kwargs)
            finally:
                marks["trace_s"] += time.monotonic() - start
                misses.append(cache.misses > before)

        def timed_init(processor, *args, **kwargs):
            start = time.monotonic()
            init(processor, *args, **kwargs)
            marks["build_s"] += time.monotonic() - start
            processors.append(processor)

        def timed_run(processor, *args, **kwargs):
            marks["run"] = marks["reset"] = time.monotonic()
            try:
                return run(processor, *args, **kwargs)
            finally:
                marks["ran"] = time.monotonic()

        def timed_reset(stats):
            reset(stats)
            marks["reset"] = time.monotonic()

        start = time.monotonic()
        with patched(TraceCache, "get", timed_get), \
                patched(Processor, "__init__", timed_init), \
                patched(Processor, "run", timed_run), \
                patched(SimulationStats, "reset_measurement", timed_reset):
            result = _EXECUTE(spec)
        end = time.monotonic()
        processor = processors[-1]
        record = {
            "key": cell_key(spec), "pid": os.getpid(),
            "start": start, "end": end,
            "trace_s": marks["trace_s"], "trace_miss": any(misses),
            "build_s": marks["build_s"],
            "warmup_s": marks["reset"] - marks["run"],
            "measure_s": marks["ran"] - marks["reset"],
            "instructions": spec.warmup + result.stats.committed,
            "gear": processor.gear,
            "despecializations": processor.despecializations,
            "cycles": processor.cycle,
            "cycles_skipped": processor.horizon_cycles_skipped,
        }
        path = os.path.join(self.spans_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        return result


def read_cells(spans_dir: str) -> List[Dict]:
    """Every cell record the children wrote, in start order."""
    records = []
    for name in sorted(os.listdir(spans_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(spans_dir, name),
                      encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle)
    return sorted(records, key=lambda record: record["start"])


class TimedResultStore(ResultStore):
    """A :class:`ResultStore` whose ``get``/``put`` feed a tracer."""

    def __init__(self, directory: str, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def get(self, key: str):
        start = time.monotonic()
        try:
            return super().get(key)
        finally:
            self.tracer.sample("store_get", time.monotonic() - start)

    def put(self, key: str, payload: Dict) -> None:
        start = time.monotonic()
        try:
            super().put(key, payload)
        finally:
            self.tracer.sample("store_put", time.monotonic() - start)


def core_metrics(cells: List[Dict]) -> Dict[str, float]:
    """``trace.child.*`` and ``core.*`` from the children's cell records."""
    gears = {"reference": 0, "horizon": 0, "specialized": 0}
    for cell in cells:
        gears[cell["gear"]] = gears.get(cell["gear"], 0) + 1
    warmup = sum(cell["warmup_s"] for cell in cells)
    measure = sum(cell["measure_s"] for cell in cells)
    instructions = sum(cell["instructions"] for cell in cells)
    cycles = sum(cell["cycles"] for cell in cells)
    metrics = {
        "trace.child.generate_s": sum(cell["trace_s"] for cell in cells
                                      if cell["trace_miss"]),
        "trace.child.misses": sum(1 for cell in cells
                                  if cell["trace_miss"]),
        "trace.child.hits": sum(1 for cell in cells
                                if not cell["trace_miss"]),
        "core.build_s": sum(cell["build_s"] for cell in cells),
        "core.warmup_s": warmup,
        "core.measure_s": measure,
        "core.loop_kips": (instructions / (warmup + measure) / 1e3
                           if warmup + measure > 0 else 0.0),
        "core.despecializations": sum(cell["despecializations"]
                                      for cell in cells),
        "core.cycles_skipped_ratio": (sum(cell["cycles_skipped"]
                                          for cell in cells) / cycles
                                      if cycles else 0.0),
    }
    for gear, count in gears.items():
        metrics[f"core.cells.{gear}"] = count
    return metrics
