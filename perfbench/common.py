"""Shared set-up for the benchmark scripts: BLAS pinning, package path,
environment report and small statistics helpers.

``pin_blas_threads`` must run before numpy is imported anywhere in the
process, so every script calls it before importing this module's numpy
users.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"     # scratch output of the benchmark, gitignored

# BLAS threads used by every run; the parent and a change must run with the
# same count because witness.json differs between 1 and 2 threads
DEFAULT_BLAS_THREADS = 2
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# samples a tail percentile must have beyond it
TAIL_BEYOND = 10
# the GEMM of the peak-rate probe: a k x n by n x k complex product, the
# shape of a Schur-assembly Gram block (n = 4**7), best of GEMM_REPEATS
GEMM_K, GEMM_N, GEMM_REPEATS = 1024, 4**7, 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(requested: int = DEFAULT_BLAS_THREADS) -> int:
    """Pin BLAS to min(requested, nproc) threads; call before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy loads")
    threads = max(1, min(int(requested), nproc()))
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def use_package_source():
    """Import icoswitch from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "icoswitch" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values):
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Returns (percentile, value, samples above it), or None when fewer than
    2 * TAIL_BEYOND samples exist (the percentile would not lie above the
    median).
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for q in range(99, 49, -1):
        above = sum(v > cuts[q - 1] for v in values)
        if above >= TAIL_BEYOND:
            return q, cuts[q - 1], above
    return None


def gemm_peak_gflop_per_s():
    """Complex GEMM rate of a Schur-assembly-shaped product, best of
    GEMM_REPEATS."""
    import numpy as np

    k, n = GEMM_K, GEMM_N
    rng = np.random.default_rng(0)
    a = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    best = float("inf")
    for _ in range(GEMM_REPEATS):
        t0 = time.perf_counter()
        a @ a.T
        best = min(best, time.perf_counter() - t0)
    return 8.0 * k * k * n / best / 1e9


def environment(blas_threads: int) -> dict:
    """Numerical environment of this process (numpy, BLAS, threads)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "machine": platform.machine(),
    }
