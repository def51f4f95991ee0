"""Host record, calibration kernel, peak memory and cold-state reset."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: Environment switches that would change what a run measures: a disk
#: trace tier (warm across runs) and the cycle-level sanitizer.
CLEARED_ENV = ("WSRS_TRACE_CACHE", "WSRS_SANITIZE")

#: Fixed iteration count of the calibration kernel, and the runs whose
#: median is the score.
CALIBRATION_ITERATIONS = 200_000
CALIBRATION_REPEATS = 3

#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 5


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_kernel() -> int:
    """A fixed pure-Python loop of the kinds of work the simulator does:
    integer arithmetic, list indexing, dict updates, attribute-free
    branches.  Returns a checksum so the work cannot be skipped."""
    table = [0] * 64
    counts: Dict[int, int] = {}
    state = 12345
    for step in range(CALIBRATION_ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        slot = state & 63
        table[slot] += step
        if table[slot] & 1:
            counts[slot] = counts.get(slot, 0) + 1
    return state ^ sum(table) ^ len(counts)


def calibration_score() -> float:
    """Median kernel iterations per microsecond over
    ``CALIBRATION_REPEATS`` runs."""
    rates = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        rates.append(CALIBRATION_ITERATIONS
                     / (time.perf_counter() - start) / 1e6)
    return statistics.median(rates)


def source_digest(src_dir: str) -> str:
    """SHA-256 over every ``.py`` file of the package, path-sorted: the
    code identity when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha(root: str) -> Optional[str]:
    """HEAD of ``root`` when it is itself a git work tree, else None."""
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def host_record(root: str) -> Dict:
    return {
        "sha": git_sha(root),
        "src_digest": source_digest(os.path.join(root, "src", "repro")),
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "calibration_iter_per_us": round(calibration_score(), 4),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of the largest process in this process tree:
    this process, or any descendant already reaped (Linux folds reaped
    grandchildren into ``RUSAGE_CHILDREN``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def import_seconds(src_dir: str, modules: List[str]) -> List[float]:
    """Wall time of ``SETUP_REPEATS`` fresh interpreters that import
    ``modules`` and exit: process start plus imports, as a user's first
    command pays it."""
    code = "; ".join(f"import {module}" for module in modules)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src_dir))
        times.append(time.perf_counter() - start)
    return times


def stop_helper_processes() -> None:
    """Stop the helpers ``multiprocessing`` starts on demand and keeps
    for the life of the interpreter - the resource tracker (started by
    any spawn pool or process) and the forkserver - and wait for each
    to exit, so a run leaves no process behind.  No public API stops
    them; ``_stop`` is a no-op for a helper that is not running."""
    from multiprocessing import forkserver, resource_tracker

    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def clear_env() -> Dict[str, Optional[str]]:
    """Unset :data:`CLEARED_ENV`; returns what was set before."""
    return {name: os.environ.pop(name, None) for name in CLEARED_ENV}


def cold_state() -> Dict:
    """Empty the in-process trace cache (no disk tier) and the compiled
    stepper cache, so each timed call starts as a fresh process does."""
    from repro.core import specialize
    from repro.trace import cache

    cache.configure(capacity=cache.DEFAULT_CAPACITY, disk_dir=None)
    # No public reset exists for the stepper code cache.
    specialize._CODE_CACHE.clear()
    return {"trace_cache_entries": len(cache.default_cache()),
            "trace_cache_disk": cache.default_cache().disk_dir,
            "stepper_code_cache_entries": len(specialize._CODE_CACHE),
            "env": {name: os.environ.get(name) for name in CLEARED_ENV}}
