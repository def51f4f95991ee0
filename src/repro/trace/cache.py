"""Keyed caching of materialised synthetic traces.

Every experiment cell re-runs the same (profile, length, seed) workload:
a Figure 4 sweep simulates each benchmark on six configurations, so five
of the six synthetic-trace generations are pure waste.  This module
caches the materialised instruction stream under the key

    (profile_name, length, seed, generator_version)

with two storage tiers:

* an **in-process LRU** (default: :data:`DEFAULT_CAPACITY` traces) - the
  tier that matters for sweeps.  With the ``fork`` start method the
  parallel experiment engine (:mod:`repro.experiments.runner`) pre-warms
  this cache *before* spawning workers with the first workloads of the
  matrix, up to its capacity, so every worker inherits those traces
  through copy-on-write pages.  A matrix with more distinct workloads
  than the capacity generates the overflow in the workers (once per
  worker that needs it); raising the capacity trades that for about
  one trace's memory per extra entry in every process;
* an optional **on-disk pickle cache** (``WSRS_TRACE_CACHE`` environment
  variable, or ``configure(disk_dir=...)``) that persists traces across
  interpreter runs and is shared between concurrent worker processes.

``generator_version`` is :data:`repro.trace.synthetic.GENERATOR_VERSION`;
bumping it invalidates every cached trace, so a stale disk cache can
never silently feed an old workload to a new simulator.  Cached traces
are tuples of immutable-in-practice :class:`TraceInstruction` records;
the simulator never mutates trace instructions, so one materialised
trace can back any number of concurrent simulations.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.atomicio import atomic_write_pickle
from repro.trace.model import TraceInstruction
from repro.trace.profiles import get_profile
from repro.trace.synthetic import GENERATOR_VERSION, SyntheticTraceGenerator

#: Default number of materialised traces the in-process LRU retains.
DEFAULT_CAPACITY = 8

#: Environment variable naming the on-disk cache directory (optional).
DISK_ENV = "WSRS_TRACE_CACHE"

Key = Tuple[str, int, int, int]


def trace_key(profile_name: str, length: int, seed: int) -> Key:
    """The full cache key for one workload request."""
    return (profile_name, length, seed, GENERATOR_VERSION)


class TraceCache:
    """Two-tier (memory LRU + optional disk) cache of generated traces."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk_dir: Optional[str] = None) -> None:
        self.capacity = max(1, capacity)
        self.disk_dir = disk_dir
        self._entries: "OrderedDict[Key, Tuple[TraceInstruction, ...]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- lookup ----------------------------------------------------------

    def get(self, profile_name: str, length: int,
            seed: int = 1) -> Tuple[TraceInstruction, ...]:
        """The materialised trace for a key, generating it on a miss."""
        key = trace_key(profile_name, length, seed)
        trace = self._entries.get(key)
        if trace is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return trace
        trace = self._load_disk(key)
        if trace is None:
            self.misses += 1
            trace = tuple(SyntheticTraceGenerator(
                get_profile(profile_name), seed).generate(length))
            self._store_disk(key, trace)
        else:
            self.disk_hits += 1
        self._entries[key] = trace
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return trace

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left in place)."""
        self._entries.clear()

    # -- disk tier -------------------------------------------------------

    def _disk_path(self, key: Key) -> Optional[str]:
        if not self.disk_dir:
            return None
        profile_name, length, seed, version = key
        return os.path.join(
            self.disk_dir, f"{profile_name}-{length}-{seed}-v{version}.pkl")

    def _load_disk(self, key: Key) -> Optional[Tuple[TraceInstruction, ...]]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                trace = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return None  # corrupt or stale file: regenerate
        if not isinstance(trace, tuple) or len(trace) != key[1]:
            return None
        return trace

    def _store_disk(self, key: Key,
                    trace: Tuple[TraceInstruction, ...]) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        # Unique-temp-file + os.replace (repro.atomicio): concurrent
        # workers - including threads sharing one pid - publishing the
        # same key never read a torn file and never truncate each
        # other's in-progress temp file.
        try:
            atomic_write_pickle(path, trace)
        except OSError:
            pass  # disk tier is best-effort; the memory tier has it


# -- module-level default cache ------------------------------------------

_default_cache: Optional[TraceCache] = None


def default_cache() -> TraceCache:
    """The process-wide cache (created lazily; honours ``WSRS_TRACE_CACHE``)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = TraceCache(disk_dir=os.environ.get(DISK_ENV))
    return _default_cache


def configure(capacity: int = DEFAULT_CAPACITY,
              disk_dir: Optional[str] = None) -> TraceCache:
    """Replace the process-wide cache with a freshly parameterised one."""
    global _default_cache
    _default_cache = TraceCache(capacity=capacity, disk_dir=disk_dir)
    return _default_cache


def cached_spec_trace(name: str, count: int,
                      seed: int = 1) -> Iterator[TraceInstruction]:
    """Drop-in for :func:`repro.trace.profiles.spec_trace`, cache-backed.

    Returns a fresh iterator over the (shared, immutable) materialised
    trace, so every caller consumes an identical stream.
    """
    return iter(default_cache().get(name, count, seed))
