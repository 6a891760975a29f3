"""Process set-up shared by the benchmark's entry points, and the record of
the machine each run was made on.

``pin_blas_threads`` must run before numpy is first imported, so this
module imports numpy only inside functions.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# One BLAS thread on both sides of every comparison.  With OpenBLAS's
# default of one thread per core its idle threads spin, CPU time reads about
# 1.5x wall time, and learning-curve runs spread about three times wider.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_gpbounds():
    """Import the package from this checkout's ``src``, never from an
    installed copy.  Exits with code 2 when the sources are missing."""
    src = ROOT / "src"
    if not (src / "gpbounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gpbounds sources under {src}")
    sys.path.insert(0, str(src))
    import gpbounds
    if Path(gpbounds.__file__).resolve().parent != (src / "gpbounds").resolve():
        sys.exit(f"perfbench: imported gpbounds from {gpbounds.__file__}, "
                 f"not from {src}")
    return gpbounds


def steal_ticks() -> int | None:
    """Cumulative CPU steal ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
    }
