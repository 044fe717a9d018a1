import threading

import pytest

from kec.errors import InvalidParams
from kec.parallel import ENV_THREADS, fan_out_width, map_ordered, resolve_threads


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


def test_top_level_call_fans_out():
    # Each of the first two items waits for the other, so they can only
    # finish if two threads run them at once.
    barrier = threading.Barrier(2, timeout=10)

    def item(v):
        if v < 2:
            barrier.wait()
        return threading.get_ident()

    idents = map_ordered(item, range(6), threads=2)
    assert len(set(idents[:2])) == 2



def test_fan_out_width_is_one_on_a_worker():
    assert [fan_out_width(t) for t in (1, 2, 3)] == [1, 2, 3]
    assert map_ordered(lambda t: fan_out_width(t), [2, 3], threads=2) == [1, 1]
