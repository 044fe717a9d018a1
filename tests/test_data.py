import numpy as np
import pytest

from kec import Dataset, validate
from kec.errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidParams,
    MissingClass,
    NonFiniteFeature,
)


def test_counts_and_train_indices():
    ds = Dataset(np.zeros((4, 2)), [1, 1, 2, 0], 2)
    stats = validate(ds)
    assert stats.counts.tolist() == [2, 1]
    assert stats.trn.tolist() == [0, 1, 2]


def test_all_unknown_rejected():
    ds = Dataset(np.zeros((3, 2)), [0, 0, 0], 2)
    with pytest.raises(EmptyTrainingSet):
        validate(ds)


def test_missing_class_rejected():
    ds = Dataset(np.zeros((3, 2)), [1, 1, 1], 2)
    with pytest.raises(MissingClass, match="class 2"):
        validate(ds)


def test_non_finite_features_rejected():
    x = np.zeros((3, 2))
    x[1, 1] = np.nan
    with pytest.raises(NonFiniteFeature):
        validate(Dataset(x, [1, 2, 0], 2))
    x[1, 1] = np.inf
    with pytest.raises(NonFiniteFeature):
        validate(Dataset(x, [1, 2, 0], 2))


@pytest.mark.parametrize("bad_labels", [[1, 3, 0], [-1, 1, 2], [1.5, 1, 2]])
def test_label_range_enforced_at_construction(bad_labels):
    with pytest.raises(InvalidParams):
        Dataset(np.zeros((3, 2)), bad_labels, 2)


def test_shape_and_class_count_errors_are_kec_errors():
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros(3), [1, 2, 0], 2)
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((3, 2)), [1, 2], 2)
    with pytest.raises(InvalidParams):
        Dataset(np.zeros((3, 2)), [1, 1, 0], 0)


def test_counts_plus_unknown_cover_all_rows():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, k = int(rng.integers(5, 60)), int(rng.integers(1, 5))
        labels = rng.integers(0, k + 1, size=n)
        labels[:k] = np.arange(1, k + 1)  # each class present
        ds = Dataset(rng.normal(size=(n, 3)), labels, k)
        stats = validate(ds)
        unknown = int(np.sum(labels == 0))
        assert int(stats.counts.sum()) + unknown == n
        assert int(stats.counts.sum()) == stats.trn.size


def test_validate_is_deterministic_and_pure():
    rng = np.random.default_rng(1)
    ds = Dataset(
        rng.normal(size=(30, 4)),
        np.concatenate([[1, 2], rng.integers(0, 3, size=28)]),
        2,
    )
    before = ds.labels.copy()
    s1 = validate(ds)
    s2 = validate(ds)
    assert np.array_equal(s1.counts, s2.counts)
    assert np.array_equal(s1.trn, s2.trn)
    assert np.array_equal(ds.labels, before)
