import numpy as np
import pytest

from kec import Dataset, validate
from kec.errors import EmptyTrainingSet, NonFiniteFeature
from kec.kernels import kernel_gram
from kec.reference import embed_reference

from helpers import random_dataset


def test_identity_case():
    ds = Dataset(np.eye(2), [1, 2], 2)
    assert np.array_equal(embed_reference(ds, "linear"), np.eye(2))


def test_single_class_column_is_row_means_of_gram():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 4))
    ds = Dataset(x, np.ones(12, dtype=int), 1)
    z = embed_reference(ds, "linear")
    gram = kernel_gram(x, "linear")
    assert np.allclose(z[:, 0], gram.mean(axis=1), rtol=1e-12, atol=1e-12)


def test_foldwise_group_sum_identity():
    # A @ W recomputed as per-class column sums scaled by 1/n_k
    rng = np.random.default_rng(1)
    for name in ("linear", "distance", "spearman"):
        ds = random_dataset(rng, 40, 6, 3)
        z = embed_reference(ds, name)
        gram = kernel_gram(ds.features, name)
        counts = validate(ds).counts
        oracle = np.empty_like(z)
        for k in range(3):
            members = np.flatnonzero(ds.labels == k + 1)
            oracle[:, k] = gram[:, members].sum(axis=1) * (1.0 / counts[k])
        assert np.allclose(z, oracle, rtol=1e-12, atol=1e-12)


def test_unknown_rows_still_embedded():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 30, 5, 3)
    labels = ds.labels.copy()
    labels[5:10] = 0
    masked = Dataset(ds.features, labels, 3)
    z = embed_reference(masked, "linear")
    assert z.shape == (30, 3)
    assert np.all(np.isfinite(z[5:10]))


@pytest.mark.parametrize("name", ["linear", "distance", "spearman"])
def test_labels_are_checked_before_the_gram_checks_features(name):
    x = np.ones((4, 3))
    x[2, 1] = np.nan
    with pytest.raises(NonFiniteFeature):
        embed_reference(Dataset(x, [1, 2, 0, 2], 2), name)
    with pytest.raises(EmptyTrainingSet):
        embed_reference(Dataset(x, [0, 0, 0, 0], 2), name)
