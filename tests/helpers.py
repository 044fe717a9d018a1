"""Shared dataset constructors and measurements for the test suite."""

import tracemalloc

import numpy as np

from kec import Dataset


def random_dataset(rng, n, p, k, scale=1.0):
    """Gaussian blobs with distinct class means; every class present."""
    labels = np.concatenate(
        [np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)]
    )
    labels = labels[rng.permutation(n)]
    means = rng.normal(0.0, 3.0, size=(k, p))
    x = means[labels - 1] + scale * rng.normal(size=(n, p))
    return Dataset(x, labels, k)


def rescaled_pattern_dataset(n=300, p=40, k=3, seed=0, log10_range=2.0):
    """Per-class rank patterns with each row scaled by a random power of 10.

    Class identity lives in the ordering of the coordinates, so a
    rank-based kernel separates the classes; arbitrary row scales destroy
    inner-product geometry.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, k + 1, size=n)
    ramp = np.linspace(0.0, 1.0, p)
    patterns = np.array([ramp[rng.permutation(p)] for _ in range(k)])
    x = patterns[labels - 1] + rng.normal(0.0, 0.05, size=(n, p))
    scales = 10.0 ** rng.uniform(-log10_range, log10_range, size=n)
    return Dataset(x * scales[:, None], labels, k)


def orthant_dataset(n=120, k=3, jitter=1e-3, seed=0):
    """Each class in its own orthant corner, tiny jitter for a PD covariance."""
    rng = np.random.default_rng(seed)
    labels = np.tile(np.arange(1, k + 1), n // k + 1)[:n]
    corners = np.full((k, k), -10.0)
    corners[np.arange(k), np.arange(k)] = 10.0
    x = corners[labels - 1] + jitter * rng.normal(size=(n, k))
    return Dataset(x, labels, k)


def peak_bytes(run) -> int:
    """Peak bytes that numpy and Python allocate while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
