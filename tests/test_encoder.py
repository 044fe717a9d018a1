import numpy as np
import pytest

from kec import Dataset, validate
from kec.encoder import EncoderWeights, build_U, build_weights, embed
from kec.errors import DimensionMismatch, InvalidParams
from kec.reference import embed_reference
from kec.simgen import SimSetting, analytic_means, generate

from helpers import random_dataset


def _stats(labels, k):
    return validate(Dataset(np.zeros((len(labels), 1)), labels, k))


class TestBuildWeights:
    def test_dense_weight_matrix(self):
        w = build_weights(np.array([1, 1, 2]), _stats([1, 1, 2], 2))
        assert w.dense().tolist() == [[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]]

    def test_unknown_rows_are_zero(self):
        w = build_weights(np.array([1, 0]), _stats([1, 0], 1))
        assert w.dense().tolist() == [[1.0], [0.0]]
        assert w.one_hot().tolist() == [[1.0], [0.0]]

    def test_one_hot_definition(self):
        w = build_weights(np.array([2, 1]), _stats([2, 1], 2))
        assert w.one_hot().tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_columns_sum_to_one_and_v_is_scaled_w(self):
        rng = np.random.default_rng(0)
        labels = np.concatenate([[1, 2, 3], rng.integers(0, 4, size=40)])
        w = build_weights(labels, _stats(labels, 3))
        dense, one_hot = w.dense(), w.one_hot()
        assert np.allclose(dense.sum(axis=0), 1.0)
        assert np.array_equal(one_hot, dense * w.counts[None, :])

    def test_inconsistent_stats_rejected(self):
        stats = _stats([1, 1, 2], 2)
        with pytest.raises(InvalidParams):
            build_weights(np.array([1, 2, 2]), stats)


class TestBuildU:
    def test_class_means(self):
        x = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 6.0]])
        w = build_weights(np.array([1, 1, 2]), _stats([1, 1, 2], 2))
        assert build_U(x, w).tolist() == [[3.0, 0.0], [0.0, 6.0]]

    def test_absent_class_gives_zero_row(self):
        # constructed directly: validate() would reject a zero count
        w = EncoderWeights(
            labels=np.array([1, 1]), counts=np.array([2, 0])
        )
        u = build_U(np.array([[1.0, 2.0], [3.0, 4.0]]), w)
        assert u[1].tolist() == [0.0, 0.0]

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 50, 7, 4)
        w = build_weights(ds.labels, validate(ds))
        u = build_U(ds.features, w)
        for k in range(4):
            acc = np.zeros(7)
            rows = [i for i in range(50) if ds.labels[i] == k + 1]
            for i in rows:
                acc += ds.features[i]
            assert np.allclose(u[k], acc / len(rows), rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        w = build_weights(np.array([1, 2]), _stats([1, 2], 2))
        with pytest.raises(DimensionMismatch):
            build_U(np.zeros((3, 2)), w)


class TestEmbed:
    def test_identity(self):
        eye = np.eye(2)
        assert np.array_equal(embed(eye, eye, "linear"), eye)

    def test_duplicated_rows_embed_identically(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 4))
        x[3] = x[1]
        u = rng.normal(size=(3, 4))
        for name in ("linear", "distance", "spearman"):
            z = embed(x, u, name)
            assert np.array_equal(z[3], z[1])

    def test_hand_matrix_product(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert embed(x, u, "linear").tolist() == [
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
        ]

    def test_row_subset_matches_full_embedding(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 40, 6, 3)
        w = build_weights(ds.labels, validate(ds))
        u = build_U(ds.features, w)
        idx = np.array([3, 7, 21, 39])
        for name in ("linear", "distance", "spearman"):
            full = embed(ds.features, u, name)
            part = embed(ds.features[idx], u, name)
            assert np.array_equal(part, full[idx])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 60, 5, 3)
        perm = rng.permutation(60)
        permuted = Dataset(ds.features[perm], ds.labels[perm], 3)
        for name in ("linear", "distance", "spearman"):
            w = build_weights(ds.labels, validate(ds))
            z = embed(ds.features, build_U(ds.features, w), name)
            wp = build_weights(permuted.labels, validate(permuted))
            zp = embed(
                permuted.features, build_U(permuted.features, wp), name
            )
            assert np.allclose(zp, z[perm], rtol=1e-12, atol=1e-12)


class TestAgainstReference:
    def test_inner_product_paths_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(20, 120))
            p = int(rng.integers(2, 12))
            k = int(rng.integers(2, 5))
            ds = random_dataset(rng, n, p, k)
            w = build_weights(ds.labels, validate(ds))
            fast = embed(ds.features, build_U(ds.features, w), "linear")
            ref = embed_reference(ds, "linear")
            rel = np.linalg.norm(fast - ref) / np.linalg.norm(ref)
            assert rel < 1e-10

    def test_other_kernels_gap_reported_not_asserted(self):
        # the fast and reference embeddings only approximate each other
        # for non-inner kernels; record the gap for the curious
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 60, 6, 3)
        w = build_weights(ds.labels, validate(ds))
        u = build_U(ds.features, w)
        for name in ("distance", "spearman"):
            fast = embed(ds.features, u, name)
            ref = embed_reference(ds, name)
            gap = np.linalg.norm(fast - ref) / np.linalg.norm(ref)
            print(f"{name} fast-vs-reference relative gap: {gap:.3f}")


class TestClassMeanConvergence:
    def test_error_to_analytic_means_shrinks_with_n(self):
        setting = SimSetting("normal-hd", n=2, p=10, num_classes=3)
        ustar = analytic_means(setting)
        medians = []
        for n in (200, 2000):
            errs = []
            for seed in range(5):
                ds = generate(
                    SimSetting("normal-hd", n=n, p=10, num_classes=3, seed=seed)
                )
                w = build_weights(ds.labels, validate(ds))
                errs.append(
                    np.linalg.norm(build_U(ds.features, w) - ustar)
                )
            medians.append(np.median(errs))
        assert medians[1] < medians[0]
