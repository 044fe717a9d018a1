import math

import numpy as np
import pytest
from scipy.stats import rankdata

from kec.errors import (
    DegenerateLength,
    DimensionMismatch,
    NonFiniteFeature,
    UnknownKernel,
)
from kec.kernels import (
    BUILTIN_KERNELS,
    _prepare,
    _rank_state,
    distance_induced,
    inner_product,
    kernel_cross,
    kernel_gram,
    resolve_kernel,
    spearman,
)

KERNELS = sorted(BUILTIN_KERNELS)


class TestInnerProduct:
    def test_direct_arithmetic(self):
        assert inner_product([1, 2], [3, 4]) == 11.0
        assert inner_product([1, 0, 2], [2, 1, 0.5]) == 3.0

    def test_zero_vector_annihilates(self):
        assert inner_product([3.5, -2.0, 7.0], [0, 0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product([1, 2], [1, 2, 3])


class TestDistanceInduced:
    def test_self_evaluation_is_the_norm(self):
        assert distance_induced([3, 4], [3, 4]) == 5.0

    def test_zero_vector_gives_zero(self):
        assert distance_induced([3, 4], [0, 0]) == 0.0

    def test_hand_evaluated_formula(self):
        expected = (1.0 + 1.0 - math.sqrt(2.0)) / 2.0
        assert distance_induced([1, 0], [0, 1]) == pytest.approx(
            expected, rel=1e-15
        )

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = int(rng.integers(1, 8))
            x = rng.normal(0, 10, p)
            u = rng.normal(0, 10, p)
            assert distance_induced(x, u) >= -1e-12


class TestSpearman:
    def test_identical_ordering(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_ordering(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_ties_get_average_ranks(self):
        # ranks of [1,1,2] are [1.5,1.5,3]; Pearson against [1,2,3]
        expected = np.corrcoef([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])[0, 1]
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.866, abs=5e-4)

    def test_constant_vector_yields_zero(self):
        assert spearman([2, 2, 2], [1, 2, 3]) == 0.0

    def test_too_short(self):
        with pytest.raises(DegenerateLength):
            spearman([1.0], [2.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        for transform in (np.exp, lambda v: v**3, lambda v: 2 * v + 7):
            x = rng.normal(size=12)
            u = rng.normal(size=12)
            assert spearman(transform(x), u) == spearman(x, u)
            assert spearman(x, transform(u)) == spearman(x, u)


def _average_ranks(a):
    return _rank_state(a)[0] + (a.shape[-1] + 1) / 2


class TestAverageRanks:
    """Ranks from the packed-key sort or its argsort fallback match scipy's bitwise."""

    def _check(self, a):
        a = np.asarray(a, dtype=np.float64)
        got = _average_ranks(a)
        want = rankdata(a, method="average", axis=-1)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_continuous_rows(self):
        rng = np.random.default_rng(20)
        self._check(rng.normal(size=(50, 37)))

    def test_heavily_tied_rows(self):
        rng = np.random.default_rng(21)
        self._check(np.round(2 * rng.normal(size=(50, 37))))
        self._check(rng.integers(0, 3, size=(40, 64)))

    def test_constant_rows(self):
        self._check(np.full((3, 9), 4.25))
        self._check(np.array([[1.0, 1.0, 1.0], [3.0, 1.0, 2.0]]))

    def test_infinities_and_signed_zeros(self):
        # Signed zeros tie, beside the smallest subnormals and +-max finite;
        # an infinity never reaches the ranking.
        big, tiny = np.finfo(float).max, 5e-324
        self._check(
            [
                [big, -big, 0.0, -0.0, 1.0, big],
                [-0.0, 0.0, -0.0, 0.0, -tiny, tiny],
                [-big, -1.0, -0.0, 0.0, tiny, -tiny],
            ]
        )
        for a in ([[np.inf, 0.0, 1.0]], [[-0.0, -np.inf, 0.0]]):
            with pytest.raises(NonFiniteFeature):
                _prepare(a, "spearman")

    def test_nan_rows_are_rejected(self):
        a = np.array([[1.0, np.nan, 2.0, 2.0], [3.0, 1.0, 2.0, 2.0]])
        with pytest.raises(NonFiniteFeature):
            _prepare(a, "spearman")
        with pytest.raises(NonFiniteFeature):
            spearman([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])

    def test_sums_of_squares_past_the_exact_length(self):
        # Beyond _EXACT_SS_LENGTH the shared constant is no longer exact
        # by construction, so every row is summed.
        import kec.kernels as kmod

        a = np.random.default_rng(23).normal(size=(2, kmod._EXACT_SS_LENGTH + 1))
        c, ss = _rank_state(a)
        assert ss.tobytes() == np.sum(c * c, axis=-1).tobytes()

    def test_vector_and_narrow_shapes(self):
        rng = np.random.default_rng(22)
        self._check(rng.normal(size=11))
        self._check([2.0, 1.0, 2.0, 3.0, 1.0])
        self._check(np.round(rng.normal(size=(30, 2))))
        self._check(np.round(2 * rng.normal(size=(1, 25))))


class TestKernelCross:
    def test_identity_inputs(self):
        eye = np.eye(2)
        assert np.array_equal(kernel_cross(eye, eye, "linear"), eye)

    def test_single_representative_is_matrix_vector(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        u = rng.normal(size=(1, 3))
        out = kernel_cross(x, u, "linear")
        assert out.shape == (6, 1)
        expected = np.array([[inner_product(row, u[0])] for row in x])
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("name", KERNELS)
    def test_bitwise_consistency_with_scalar(self, name):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3)) if name != "spearman" else rng.normal(size=(5, 7))
        u = rng.normal(size=(2, x.shape[1]))
        out = kernel_cross(x, u, name)
        scalar = BUILTIN_KERNELS[name].scalar
        for i in range(x.shape[0]):
            for j in range(u.shape[0]):
                assert out[i, j] == scalar(x[i], u[j])

    @pytest.mark.parametrize("name", KERNELS)
    def test_bitwise_consistency_beyond_one_chunk(self, name, monkeypatch):
        import kec.kernels as kmod

        monkeypatch.setattr(kmod, "_CHUNK_ELEMS", 64)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(23, 11))
        u = rng.normal(size=(4, 11))
        # distance computes every entry of the offset data from x - u, and
        # of the mixed data the entries of rows equal to a class mean
        mixed = x.copy()
        mixed[[1, 2, 9, 15, 16, 17, 20]] = u[[0, 3, 1, 0, 0, 3, 2]]
        for a, b in ((x, u), (x + 1e9, u + 1e9), (mixed, u)):
            out = kernel_cross(a, b, name)
            scalar = BUILTIN_KERNELS[name].scalar
            for i in range(23):
                for j in range(4):
                    assert out[i, j] == scalar(a[i], b[j])

    @pytest.mark.parametrize("p", [1 << 17, (1 << 17) + 1])
    def test_spearman_numerator_is_the_einsum_sum_at_the_blas_bound(self, p):
        # Up to p = 2^17 the numerator is a BLAS product, exact in any order;
        # past it, the einsum loop itself. Rows hold ties, and a perfect and
        # a reversed correlation, which give the largest numerators.
        rng = np.random.default_rng(24)
        U = np.round(rng.normal(size=(2, p)), 1)
        U[1] = rng.permutation(p)
        X = np.vstack([np.round(rng.normal(size=(2, p)), 2), U[1], -U[1]])
        (cx, ssx), (cu, ssu) = _rank_state(X), _rank_state(U)
        num = np.einsum("ij,kj->ik", cx, cu, optimize=False)
        den = np.sqrt(ssx[:, None] * ssu[None, :])
        want = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
        got = kernel_cross(X, U, "spearman")
        assert got.tobytes() == want.tobytes()
        assert got[2, 1] == 1.0 and got[3, 1] == -1.0

    def test_column_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_cross(np.zeros((3, 2)), np.zeros((2, 3)), "linear")


class TestKernelGram:
    def test_identity_linear(self):
        eye = np.eye(2)
        assert np.array_equal(kernel_gram(eye, "linear"), eye)

    def test_distance_diagonal_is_row_norm(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        gram = kernel_gram(x, "distance")
        norms = np.sqrt(np.sum(x * x, axis=-1))
        assert np.array_equal(np.diag(gram), norms)

    @pytest.mark.parametrize("name", KERNELS)
    def test_symmetric_and_matches_scalar_oracle(self, name):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 4))
        gram = kernel_gram(x, name)
        assert np.allclose(gram, gram.T, rtol=0, atol=1e-12)
        scalar = BUILTIN_KERNELS[name].scalar
        oracle = np.array(
            [[scalar(x[i], x[j]) for j in range(6)] for i in range(6)]
        )
        assert np.allclose(gram, oracle, rtol=1e-12, atol=1e-14)


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(UnknownKernel):
            resolve_kernel("gaussian")

    def test_custom_callable_is_wrapped(self):
        def bump(x, u):
            return float(np.sum(x) + np.sum(u))

        k = resolve_kernel(bump)
        assert k.name == "bump"
        x = np.arange(6.0).reshape(2, 3)
        out = kernel_cross(x, x, k)
        assert out[0, 1] == bump(x[0], x[1])

    def test_kernel_objects_pass_through(self):
        k = resolve_kernel("linear")
        assert resolve_kernel(k) is k
