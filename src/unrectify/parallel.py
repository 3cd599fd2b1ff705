"""Serial stand-ins for the retired thread pool.

No library code calls them.  They remain only because ``bench/run.py``
prints ``worker_count()`` and ``bench/tracing.py`` wraps ``parallel_map``;
the observability change in ROADMAP item 3 deletes both names."""
import os

__all__ = ["worker_count", "parallel_map"]


def worker_count() -> int:
    return os.cpu_count() or 1


def parallel_map(fn, items) -> list:
    return [fn(item) for item in items]
