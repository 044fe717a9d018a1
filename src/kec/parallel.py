"""Deterministic fan-out helper for independent work items."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

ENV_THREADS = "KEC_THREADS"

# Set on the threads of a running fan-out, so a nested one runs inline.
_worker = threading.local()


def resolve_threads(threads=None) -> int:
    """Explicit value, else the KEC_THREADS env var, else machine parallelism."""
    if threads is None:
        env = os.environ.get(ENV_THREADS)
        threads = int(env) if env else (os.cpu_count() or 1)
    return max(1, int(threads))


def _as_worker(fn):
    def run(item):
        _worker.active = True
        try:
            return fn(item)
        finally:
            _worker.active = False

    return run


def map_ordered(fn, items, threads: int = 1) -> list:
    """Apply fn to every item, returning results in input order.

    The reduction is an ordered collect, so results never depend on the
    schedule; threads only change wall-clock time. There is one level of
    fan-out: a call made from inside another call's worker (a fit's
    kernel branches inside a cross-validation replicate) runs its items
    inline on that worker's thread, so the busy threads never outnumber
    ``threads`` of the outermost call.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_as_worker(fn), items))
