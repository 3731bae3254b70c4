"""Machine identity recorded with every result, and the comparison guard.

Two results are comparable only when they were measured on the same
identity: CPU model, usable CPUs, Python / numpy / scipy versions, BLAS
library and thread count, and the filesystem the vault writes to (its
fsync cost is part of ``opamp-served``).
"""

from __future__ import annotations

import os
import platform
import re

#: Environment that pins BLAS/OpenMP pools to one thread, so the parent
#: and two farm workers stay within two cores.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _filesystem(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _blas() -> tuple[str, int]:
    """BLAS library name/version as numpy was built, and its thread pin."""
    import numpy as np

    name = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        pass
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
        "OMP_NUM_THREADS", "default"
    )
    return name, int(threads) if re.fullmatch(r"\d+", threads) else -1


def machine_identity(vault_dir: str) -> dict:
    import numpy as np
    import scipy

    blas, threads = _blas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "vault_fs": _filesystem(vault_dir),
    }


def identity_mismatch(a: dict, b: dict) -> list[str]:
    """Fields on which two identities differ (empty: comparable)."""
    return sorted(
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in set(a) | set(b)
        if a.get(key) != b.get(key)
    )
