import os
import threading

import numpy as np
import pytest

import kec.parallel as parallel
from kec import fit
from kec.errors import InvalidParams
from kec.parallel import ENV_THREADS, fan_out_width, map_ordered, resolve_threads

from helpers import random_dataset


def test_explicit_value_wins(monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "7")
    assert resolve_threads(2) == 2


def test_env_fallback(monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "3")
    assert resolve_threads(None) == 3


def test_machine_default(monkeypatch):
    monkeypatch.delenv(ENV_THREADS, raising=False)
    assert resolve_threads(None) >= 1


def test_counts_below_one_rejected(monkeypatch):
    for threads in (0, -4):
        with pytest.raises(InvalidParams, match="at least 1"):
            resolve_threads(threads)
    monkeypatch.setenv(ENV_THREADS, "0")
    with pytest.raises(InvalidParams, match=ENV_THREADS):
        resolve_threads(None)


@pytest.mark.parametrize("threads", [1, 4])
def test_map_ordered_preserves_order(threads):
    result = map_ordered(lambda v: v * v, range(20), threads=threads)
    assert result == [v * v for v in range(20)]


def test_nested_call_runs_inline_on_its_worker():
    def outer(v):
        inner = map_ordered(
            lambda w: (threading.get_ident(), w), range(5 * v, 5 * v + 5), threads=4
        )
        return threading.get_ident(), inner

    results = map_ordered(outer, range(4), threads=2)
    for v, (worker, inner) in enumerate(results):
        assert worker != threading.get_ident()
        assert [ident for ident, _ in inner] == [worker] * 5
        assert [w for _, w in inner] == list(range(5 * v, 5 * v + 5))


def test_top_level_call_fans_out(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # Each of the first two items waits for the other, so they can only
    # finish if two threads run them at once.
    barrier = threading.Barrier(2, timeout=10)

    def item(v):
        if v < 2:
            barrier.wait()
        return threading.get_ident()

    idents = map_ordered(item, range(6), threads=2)
    assert len(set(idents[:2])) == 2


def test_fan_out_width_is_one_on_a_worker(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [fan_out_width(t) for t in (1, 2, 3)] == [1, 2, 3]
    assert map_ordered(lambda t: fan_out_width(t), [2, 3], threads=2) == [1, 1]


@pytest.mark.parametrize("cpus, width", [(3, 3), (None, 1)])
def test_threads_are_capped_at_the_cpu_count(monkeypatch, cpus, width):
    """A huge thread count starts no more workers than the machine has CPUs.

    The executor is a stand-in that records its width and runs the items
    inline, so no thread is started.
    """
    widths = []

    class Executor:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Executor)
    assert fan_out_width(100000) == width
    assert map_ordered(lambda v: v * v, range(5), threads=100000) == [0, 1, 4, 9, 16]
    assert widths == ([width] if width > 1 else [])
    ds = random_dataset(np.random.default_rng(0), 50, 4, 2)
    assert fit(ds, threads=100000).kernel_ids == ("linear", "distance", "spearman")
    # one fan-out for the row blocks, one for the kernels' LDA steps
    assert widths == ([width] * 3 if width > 1 else [])
