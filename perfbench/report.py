"""Environment record and sample summaries for the benchmark report."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import sys

import numpy as np


def _openblas_libraries() -> list[str]:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def blas_state() -> list[dict]:
    """Version and thread count in effect of every OpenBLAS loaded."""
    found = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment(blas_env: dict) -> dict:
    import scipy
    try:
        import threadpoolctl  # noqa: F401
        threadpool = "installed, not used"
    except ImportError:
        threadpool = "absent"
    blas = blas_state()
    threads = sorted({b["threads"] for b in blas if "threads" in b})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": [b.get("config", b["library"]) for b in blas],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_in_effect": threads,
        "pinned": "environment only: " + ", ".join(
            f"{k}={os.environ.get(k)}" for k in blas_env),
        "threadpoolctl": threadpool,
        "platform": platform.platform(),
    }


def summary(samples) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n.

    Below 20 samples no percentile has ten beyond it and at least half
    the samples below it, so the maximum stands in, labelled ``max``.
    """
    values = np.asarray(samples, dtype=np.float64)
    n = values.size
    if n >= 20:
        q = math.floor(100.0 * (1.0 - 10.0 / n))
        label, high = f"p{q}", float(np.percentile(values, q))
    else:
        label, high = "max", float(values.max())
    return {"median": float(np.median(values)), "high_label": label,
            "high": high, "n": int(n)}


def fmt(value: float) -> str:
    return f"{value:.6g}"


def metric_line(metric, starred: bool = False) -> str:
    mark = "*" if starred else " "
    head = f" {mark}{metric.name:<38} {fmt(metric.value):>12} {metric.unit}"
    if metric.samples:
        s = summary(metric.samples)
        head += (f"   (median {fmt(s['median'])}, {s['high_label']} "
                 f"{fmt(s['high'])}, n={s['n']})")
    return head


def env_lines(env: dict) -> list[str]:
    return [f"  {key}: {value}" for key, value in env.items()]


def stderr(text: str) -> None:
    print(text, file=sys.stderr, flush=True)
