"""Deterministic fan-out helper for independent work items."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidParams, check_count

ENV_THREADS = "KEC_THREADS"

# Set on the threads of a running fan-out, so a nested one runs inline.
_worker = threading.local()


def resolve_threads(threads=None) -> int:
    """Explicit value, else the KEC_THREADS env var, else machine parallelism.

    An explicit or KEC_THREADS count that is not an integer of at least 1
    raises InvalidParams (``errors.check_count``).
    """
    if threads is not None:
        return check_count("threads", threads, 1)
    env = os.environ.get(ENV_THREADS)
    if not env:
        return os.cpu_count() or 1
    try:
        return check_count(ENV_THREADS, int(env), 1)
    except ValueError:
        raise InvalidParams(
            f"{ENV_THREADS} must be an integer, got {env!r}"
        ) from None


def _as_worker(fn):
    def run(item):
        _worker.active = True
        try:
            return fn(item)
        finally:
            _worker.active = False

    return run


def fan_out_width(threads: int) -> int:
    """Threads a ``map_ordered`` call made here with ``threads`` would use.

    That is ``threads`` (an integer of at least 1) capped at the CPU count
    at the top level, and 1 on a fan-out's worker, where a nested call runs
    inline. A caller that splits its work into items sizes them from this.
    """
    return 1 if getattr(_worker, "active", False) else min(threads, os.cpu_count() or 1)


def map_ordered(fn, items, threads: int = 1) -> list:
    """Apply fn to every item, returning results in input order.

    The reduction is an ordered collect, so results never depend on the
    schedule; threads only change wall-clock time. Items are taken in
    input order. There is one level of fan-out: a call made from inside
    another call's worker (a fit's row blocks inside a cross-validation
    replicate) runs its items inline on that worker's thread, so the busy
    threads never outnumber the outermost call's ``fan_out_width``.
    """
    threads = fan_out_width(check_count("threads", threads, 1))
    items = list(items)
    if len(items) <= 1 or threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_as_worker(fn), items))
