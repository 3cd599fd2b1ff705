"""Thread-pool helpers; UNRECTIFY_THREADS caps the worker count.

The library itself no longer calls them: ``bench/`` prints ``worker_count``
and traces ``parallel_map``."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["worker_count", "parallel_map"]


def worker_count() -> int:
    raw = os.environ.get("UNRECTIFY_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"UNRECTIFY_THREADS must be an integer, got {raw!r}")
        if n < 1:
            raise ValueError(f"UNRECTIFY_THREADS must be positive, got {n}")
        return n
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map over independent items, in order; threaded when it can help.

    Results are returned in input order, so order-independent reductions on
    top of this stay deterministic regardless of the worker count.
    """
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or len(items) < 4:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
