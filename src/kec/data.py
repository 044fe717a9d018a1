"""Core domain types and label-vector validation.

Conventions
-----------
- Features are an (n, p) float64 matrix, one sample per row.
- Labels are integers in {0, 1, ..., K}; 0 marks a sample whose class is
  unknown (a test point). Classes are 1-based to match that convention.
- K (``num_classes``) is always supplied explicitly, never inferred from
  max(label), so a fold with a masked-out class keeps the model shape.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidParams,
    MissingClass,
    NonFiniteFeature,
    check_count,
)


@dataclass(frozen=True)
class Dataset:
    """An (n, p) feature matrix paired with labels in {0, ..., K}.

    Construction raises ``DimensionMismatch`` for malformed shapes and
    ``InvalidParams`` for non-integer or out-of-range labels and a
    ``num_classes`` that is not an integer of at least 1.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DimensionMismatch("features must be a 2-D matrix")
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DimensionMismatch(
                "labels must be a vector with one entry per feature row"
            )
        if labels.size and not np.all(labels == labels.astype(np.int64)):
            raise InvalidParams("labels must be integers")
        labels = labels.astype(np.int64)
        k = check_count("num_classes", self.num_classes, 1)
        if labels.size and (labels.min() < 0 or labels.max() > k):
            raise InvalidParams(f"labels must lie in [0, {k}]")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", k)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ClassStats:
    """Per-class training counts and the set of labeled row indices."""

    counts: np.ndarray  # (K,) int64, counts of labels 1..K
    trn: np.ndarray  # sorted indices of rows with label > 0

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


def class_counts(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Count occurrences of each class 1..K in a label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    return np.bincount(labels, minlength=num_classes + 1)[1:]


def validate(dataset: Dataset) -> ClassStats:
    """Check dataset invariants and return per-class counts plus train rows.

    Raises
    ------
    NonFiniteFeature
        The feature matrix contains NaN or infinity.
    EmptyTrainingSet
        Every label is 0.
    MissingClass
        Some class in 1..K has no labeled sample.
    """
    if not np.isfinite(dataset.features).all():
        raise NonFiniteFeature("features contain NaN or infinite values")
    return _label_stats(dataset)


def _label_stats(dataset: Dataset) -> ClassStats:
    """``validate`` for features already checked finite: the label checks alone."""
    trn = np.flatnonzero(dataset.labels > 0)
    if trn.size == 0:
        raise EmptyTrainingSet("all labels are 0; no training samples")
    counts = class_counts(dataset.labels, dataset.num_classes)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise MissingClass(
            f"class {int(missing[0]) + 1} has no training sample"
        )
    return ClassStats(counts=counts, trn=trn)
