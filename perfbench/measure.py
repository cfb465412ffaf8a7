"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples) -> float:
    """Median (0 for no samples)."""
    return statistics.median(samples) if samples else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def environment() -> dict:
    """Versions, CPU count and source revision for the run record."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = None
    if os.path.isdir(".git"):  # a plain source checkout has no history
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }
