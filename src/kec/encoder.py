"""Fast label-encoder embedding: class means and the n x K kernel embedding.

The weight matrix W (per-class 1/n_k indicators) is kept in compact form,
labels plus class counts, and the class-mean matrix is computed as a
grouped row sum in O(np). Dense W and the one-hot matrix V are available
on demand; only the reference path ever multiplies by them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClassStats, class_counts
from .errors import DimensionMismatch, InvalidParams
from .kernels import kernel_cross


@dataclass(frozen=True)
class EncoderWeights:
    """Compact form of the weight matrix W and the one-hot matrix V.

    Rows with label 0 correspond to zero rows in both matrices.
    """

    labels: np.ndarray  # (n,) int64, 0 = unknown
    counts: np.ndarray  # (K,) int64 training counts per class

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    def dense(self) -> np.ndarray:
        """The n x K matrix with W(i, k) = 1/n_k iff label_i = k."""
        n = self.labels.shape[0]
        w = np.zeros((n, self.num_classes))
        trn = self.labels > 0
        cls = self.labels[trn] - 1
        w[np.flatnonzero(trn), cls] = 1.0 / self.counts[cls]
        return w

    def one_hot(self) -> np.ndarray:
        """The n x K binary matrix with V(i, k) = 1 iff label_i = k."""
        n = self.labels.shape[0]
        v = np.zeros((n, self.num_classes))
        trn = self.labels > 0
        v[np.flatnonzero(trn), self.labels[trn] - 1] = 1.0
        return v


def build_weights(labels, stats: ClassStats) -> EncoderWeights:
    """Build encoder weights from labels and their validated class stats."""
    labels = np.asarray(labels, dtype=np.int64)
    if not np.array_equal(class_counts(labels, stats.num_classes), stats.counts):
        raise InvalidParams("class stats are inconsistent with the label vector")
    return EncoderWeights(labels=labels, counts=stats.counts.copy())


def build_U(X, weights: EncoderWeights) -> np.ndarray:
    """Class-representative matrix: row k is the mean of training class k.

    Equals W^T X but computed as a grouped row sum in O(np). A class with
    zero training count yields an all-zero row.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != weights.labels.shape[0]:
        raise DimensionMismatch(
            "feature matrix rows must match the label vector length"
        )
    k = weights.num_classes
    sums = np.empty((k, X.shape[1]))
    for c in range(k):
        sums[c] = X[weights.labels == c + 1].sum(axis=0)
    inv = np.divide(
        1.0,
        weights.counts,
        out=np.zeros(k),
        where=weights.counts > 0,
    )
    return sums * inv[:, None]


def embed(X, U, kernel) -> np.ndarray:
    """Kernel embedding Z(i, j) = kernel(X(i,:), U(j,:)); an (n, K) matrix.

    All rows are embedded, including label-0 rows, since U depends only on
    training labels. Rows are independent, so embedding a subset of rows
    gives exactly the rows of the full embedding. U may be a fitted
    model's prepared class means, which embed bitwise like the raw ones.
    ``kernel_cross`` raises ``DimensionMismatch`` unless X and U are
    matrices with the same column count.
    """
    return kernel_cross(X, U, kernel)
