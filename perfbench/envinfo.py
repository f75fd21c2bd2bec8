"""The machine facts recorded with every benchmark result.

Everything here is read-only: CPU count and affinity, the cgroup CPU quota,
cache sizes from sysfs, library versions, the BLAS numpy was built against and
the thread-count environment variables. Nothing is measured.
"""

import os
import platform
from pathlib import Path

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ISOLATION = (
    "not isolated: this machine cannot pin CPUs or drop the page cache, and other "
    "tenants share it, so every figure is a median over repeated solves"
)


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_quota():
    """CPUs granted by the cgroup CPU controller, or None when unlimited or unknown."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        quota, _, period = v2.partition(" ")
        if quota != "max" and period:
            return int(quota) / int(period)
        return None
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None or int(quota) <= 0:
        return None
    return int(quota) / int(period)


def cache_sizes():
    """Data and unified cache sizes of CPU 0 by level, as sysfs writes them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        size = _read(index / "size")
        if level and size and kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def blas_vendor(np):
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return None


def environment():
    import numpy as np
    import scipy

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity is not None else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": cpu_quota(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor(np),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "machine": platform.machine(),
        "isolation": ISOLATION,
    }
