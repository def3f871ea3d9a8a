"""What produced a record: code, library versions, machine and thread settings."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads")


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded in this process, if found."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)  # already loaded: returns the same handle
        except OSError:
            continue
        for name in OPENBLAS_GETTERS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def process_stamp() -> dict:
    """Versions and BLAS threads of the calling (measured) process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit(root: Path) -> str | None:
    """The git commit of root, or None when root is not a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the library's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_stamp(root: Path, workload: str, seed: int, trace: bool) -> dict:
    return {
        "commit": commit(root),
        "source_sha256": source_digest(root / "src"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }
