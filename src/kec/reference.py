"""Quadratic-cost reference embedding via the full Gram matrix.

Kept as the correctness oracle and timing foil for the fast path: it
materializes the n x n kernel matrix densely and multiplies by the dense
weight matrix, exactly as written. Clarity over speed.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, _label_stats
from .encoder import build_weights
from .kernels import kernel_gram


def embed_reference(dataset: Dataset, kernel="linear") -> np.ndarray:
    """Rows as A @ W, A the full Gram matrix, in O(n^2 p); labels checked first."""
    stats = _label_stats(dataset)
    a = kernel_gram(dataset.features, kernel)
    w = build_weights(dataset.labels, stats).dense()
    return a @ w
