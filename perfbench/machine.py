"""Description of the machine and code a benchmark result was measured on."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> tuple[int | None, str | None]:
    """Thread count and runtime configuration of numpy's bundled OpenBLAS."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        # numpy >= 2 wheels prefix and suffix the OpenBLAS symbols
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                threads.argtypes = []
                config.restype = ctypes.c_char_p
                config.argtypes = []
                return int(threads()), config().decode()
    return None, None


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def record(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_runtime_config": config,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "seed": seed,
    }
