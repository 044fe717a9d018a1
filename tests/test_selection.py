import math
import os
import sys

import numpy as np
import pytest

import kec.encoder
import kec.evaluation
import kec.kernels
from kec import Dataset
from kec.encoder import embed
from kec.errors import (
    DimensionMismatch,
    InvalidParams,
    NoBaselineKernel,
    NonFiniteFeature,
    NotFitted,
    ShapeMismatch,
)
from kec.evaluation import EvalConfig, cross_validate
from kec.kernels import BUILTIN_KERNELS, _prepare, kernel_cross
from kec.lda import posterior, predict
from kec.parallel import map_ordered
from kec.selection import (
    LOG_CLIP,
    KernelScore,
    cross_entropy,
    fit,
    predict_new,
    select_kernel,
)
from kec.simgen import SimSetting, generate

from helpers import random_dataset, rescaled_pattern_dataset


# Custom kernels that take a built-in's name, and so are refused.
def linear(x, u):
    return float(np.dot(x, u))


def distance(x, u):
    return float(-np.sum((x - u) ** 2))


class TestCrossEntropy:
    def test_perfect_posterior_is_zero(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert cross_entropy(v, v) == 0.0

    def test_uniform_posterior(self):
        k, m = 4, 7
        t = np.full((m + 2, k), 1.0 / k)
        v = np.zeros((m + 2, k))
        v[np.arange(m), np.arange(m) % k] = 1.0  # last two rows unknown
        assert cross_entropy(t, v) == pytest.approx(m * math.log(k), rel=1e-12)

    def test_zero_probability_is_clipped(self):
        t = np.array([[0.0, 1.0]])
        v = np.array([[1.0, 0.0]])
        assert cross_entropy(t, v) == pytest.approx(-math.log(LOG_CLIP))

    def test_unknown_rows_contribute_nothing(self):
        t = np.array([[0.2, 0.8], [0.9, 0.1]])
        v = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert cross_entropy(t, v) == pytest.approx(-math.log(0.8))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy(np.zeros((2, 2)), np.zeros((3, 2)))


def _model_arrays(model, X):
    """Every stored and derived array of a model, and its predictions on X."""
    lda = model.lda
    return [
        model.class_means,
        model.cross_entropies,
        lda.means,
        lda.pooled_cov,
        lda.priors,
        lda.chol,
        lda.whiten,
        lda.log_priors,
        np.asarray(model.prepared_means),
        *model.prepared_means.states[model.kernel.state],
        *predict_new(model, X),
    ]


def _scores(entropies):
    return [
        KernelScore(kernel=None, cross_entropy=c, model=None, embedding=None)
        for c in entropies
    ]


class TestSelectKernel:
    def test_switches_when_thirty_percent_smaller(self):
        assert select_kernel(_scores([10.0, 6.0, 9.0]), baseline=0) == 1

    def test_keeps_baseline_otherwise(self):
        assert select_kernel(_scores([10.0, 8.0, 9.0]), baseline=0) == 0

    def test_single_candidate(self):
        assert select_kernel(_scores([5.0]), baseline=0) == 0

    def test_saturated_baseline_never_switches(self):
        assert select_kernel(_scores([1e-9, 1e-10]), baseline=0) == 0

    def test_scale_invariance_above_saturation_floor(self):
        for scale in (0.1, 1.0, 1e4):
            ces = [c * scale for c in (10.0, 6.0, 9.0)]
            assert select_kernel(_scores(ces), baseline=0) == 1

    def test_saturation_floor_overrides_ratio(self):
        # below the floor the comparison is numerical noise by design
        ces = [c * 1e-4 for c in (10.0, 6.0, 9.0)]
        assert select_kernel(_scores(ces), baseline=0) == 0

    def test_ties_among_others_take_candidate_order(self):
        assert select_kernel(_scores([10.0, 6.0, 6.0]), baseline=0) == 1

    def test_pure_argmin_via_threshold_one(self):
        assert select_kernel(_scores([10.0, 9.9, 9.95]), 0, threshold=1.0) == 1
        assert select_kernel(_scores([10.0, 9.9]), 0, threshold=0.7) == 0

    def test_bad_baseline_index(self):
        with pytest.raises(NoBaselineKernel):
            select_kernel(_scores([1.0]), baseline=3)


class TestFit:
    def test_linear_only_on_separable_setting(self):
        ds = generate(SimSetting("normal-hd", n=200, p=50, num_classes=3, seed=0))
        model = fit(ds, kernels=("linear",))
        assert model.kernel.name == "linear"
        assert model.kernel_ids == ("linear",)
        labels, _ = predict_new(model, ds.features)
        assert np.mean(labels != ds.labels) == 0.0

    def test_rescaled_patterns_select_spearman(self):
        ds = rescaled_pattern_dataset(seed=0)
        model = fit(ds)
        assert model.kernel.name == "spearman"
        ces = dict(zip(model.kernel_ids, model.cross_entropies))
        assert ces["spearman"] <= 0.7 * ces["linear"]

    def test_requires_inner_product(self):
        ds = generate(SimSetting("uniform-hd", n=60, p=10, num_classes=2, seed=1))
        with pytest.raises(NoBaselineKernel):
            fit(ds, kernels=("distance", "spearman"))
        with pytest.raises(NoBaselineKernel):
            fit(ds, kernels=())

    @pytest.mark.parametrize(
        "kernels",
        [
            ("linear", "spearman", "spearman"),
            ("linear", kec.kernels.INNER_PRODUCT),
        ],
    )
    def test_repeated_kernels_rejected(self, kernels):
        """A kernel that repeats after resolution would repeat in kernel_ids."""
        ds = generate(SimSetting("uniform-hd", n=60, p=10, num_classes=2, seed=1))
        with pytest.raises(InvalidParams, match="must not repeat"):
            fit(ds, kernels=kernels)
        with pytest.raises(InvalidParams, match="must not repeat"):
            cross_validate(ds, EvalConfig(folds=2, replicates=1), kernels)

    @pytest.mark.parametrize(
        "look_alike",
        [
            linear,
            distance,
            kec.kernels.Kernel(
                "spearman", kec.kernels.spearman, kec.kernels.SPEARMAN_RANK.pairwise
            ),
        ],
        ids=["callable linear", "callable distance", "Kernel spearman"],
    )
    @pytest.mark.parametrize("methods", [("fast-linear",), ("fast-linear", "fast-multi")])
    def test_builtin_names_mean_the_builtins(self, monkeypatch, look_alike, methods):
        """A custom kernel that takes a built-in's name raises InvalidParams,
        one line, wherever a kernel is resolved; cross-validation raises it
        before any replicate runs, whichever methods are configured."""
        ds = random_dataset(np.random.default_rng(2), 40, 5, 2)

        def replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(kec.evaluation, "_run_replicate", replicate)
        config = EvalConfig(folds=2, replicates=1, methods=methods)
        for call in (
            lambda: kec.kernels.resolve_kernel(look_alike),
            lambda: fit(ds, ("linear", look_alike)),
            lambda: kernel_cross(ds.features, ds.features[:3], look_alike),
            lambda: cross_validate(ds, config, (look_alike,)),
        ):
            with pytest.raises(InvalidParams, match="takes a built-in kernel's name") as err:
                call()
            assert "\n" not in str(err.value)

    def test_cross_entropies_recorded_in_candidate_order(self):
        ds = generate(SimSetting("uniform-hd", n=80, p=12, num_classes=3, seed=2))
        model = fit(ds, kernels=("linear", "spearman", "distance"))
        assert model.kernel_ids == ("linear", "spearman", "distance")
        assert model.cross_entropies.shape == (3,)
        assert np.all(np.isfinite(model.cross_entropies))
        assert np.all(model.cross_entropies >= 0.0)
        assert len(model.scores) == 3

    def test_label_zero_rows_do_not_change_entropies(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 60, 8, 3)
        extra = rng.normal(size=(10, 8))
        grown = Dataset(
            np.vstack([ds.features, extra]),
            np.concatenate([ds.labels, np.zeros(10, dtype=int)]),
            3,
        )
        m1 = fit(ds)
        m2 = fit(grown)
        assert np.array_equal(m1.cross_entropies, m2.cross_entropies)
        assert m1.kernel.name == m2.kernel.name

    def test_deterministic(self):
        ds = generate(SimSetting("uniform-noise", n=90, p=15, num_classes=3, seed=4))
        m1, m2 = fit(ds), fit(ds)
        assert np.array_equal(m1.cross_entropies, m2.cross_entropies)
        assert np.array_equal(m1.class_means, m2.class_means)
        assert m1.kernel.name == m2.kernel.name

    def test_threads_do_not_change_the_model(self):
        for ds in (
            generate(SimSetting("uniform-hd", n=80, p=12, num_classes=3, seed=5)),
            rescaled_pattern_dataset(n=120, p=20, seed=4),
        ):
            m1 = fit(ds, threads=1)
            for threads in (2, 3):
                m = fit(ds, threads=threads)
                assert m1.kernel.name == m.kernel.name
                assert m1.kernel_ids == m.kernel_ids
                assert m1.lda.ridge == m.lda.ridge
                for a, b in zip(
                    _model_arrays(m1, ds.features), _model_arrays(m, ds.features)
                ):
                    assert a.tobytes() == b.tobytes()

    def test_candidate_order_does_not_change_entropies(self):
        def bump(x, u):
            return float(np.sum(x * u)) + 1.0

        ds = generate(SimSetting("uniform-hd", n=60, p=8, num_classes=3, seed=7))
        base = fit(ds, kernels=("linear", "distance", "spearman", bump), threads=2)
        expected = dict(zip(base.kernel_ids, base.cross_entropies))
        for order in (
            ("spearman", "linear", "distance"),
            ("distance", bump, "spearman", "linear"),
            (bump, "linear", "spearman", "distance"),
        ):
            model = fit(ds, kernels=order, threads=2)
            names = tuple(k if isinstance(k, str) else k.__name__ for k in order)
            assert model.kernel_ids == names
            assert tuple(s.kernel.name for s in model.scores) == names
            for name, ce in zip(model.kernel_ids, model.cross_entropies):
                assert ce == expected[name]

    def test_exactly_m_embeddings_and_no_gram(self, monkeypatch):
        calls = {"cross": 0, "gram": 0}
        real_cross = kec.encoder.kernel_cross

        def spy_cross(x, u, kernel):
            calls["cross"] += 1
            return real_cross(x, u, kernel)

        monkeypatch.setattr(kec.encoder, "kernel_cross", spy_cross)

        def spy_gram(x, kernel):
            calls["gram"] += 1
            raise AssertionError("fast path must not build a Gram matrix")

        monkeypatch.setattr(kec.kernels, "kernel_gram", spy_gram)
        ds = generate(SimSetting("uniform-hd", n=50, p=8, num_classes=2, seed=6))
        fit(ds)
        assert calls == {"cross": 3, "gram": 0}

    def test_row_blocks_follow_the_threads_the_fan_out_uses(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rows = []
        real_cross = kec.encoder.kernel_cross

        def spy_cross(x, u, kernel):
            rows.append(np.shape(x)[0])  # list.append is atomic
            return real_cross(x, u, kernel)

        monkeypatch.setattr(kec.encoder, "kernel_cross", spy_cross)
        ds = generate(SimSetting("uniform-hd", n=50, p=8, num_classes=2, seed=6))
        fit(ds, threads=2)
        assert sorted(rows) == [12] * 6 + [13] * 6  # two blocks per thread
        rows.clear()
        # On a worker of an enclosing fan-out the fit runs inline, one
        # embedding per kernel.
        map_ordered(lambda _: fit(ds, threads=2), range(2), threads=2)
        assert rows == [50] * 6

    def test_row_blocks_survive_frequent_thread_switches(self, monkeypatch):
        # Workers write disjoint row blocks of shared embedding matrices;
        # more workers than cores and a tiny switch interval would expose
        # a lost or misplaced block as a changed bit. The fan-out starts
        # at most os.cpu_count() workers, so it reports six CPUs here.
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        ds = rescaled_pattern_dataset(n=301, p=16, k=3, seed=17)
        want = [s.embedding.tobytes() for s in fit(ds).scores]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = [s.embedding.tobytes() for s in fit(ds, threads=6).scores]
                assert got == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_prepared_features_fit_like_the_raw_ones(self, threads):
        ds = rescaled_pattern_dataset(n=90, p=12, k=3, seed=16)
        ds = Dataset(np.round(ds.features, 1), ds.labels, ds.num_classes)
        kernels = [BUILTIN_KERNELS[name] for name in ("linear", "distance", "spearman")]
        prepared = _prepare(ds.features, *kernels)
        plain = fit(ds, kernels, threads=threads)
        shared = fit(ds, kernels, threads=threads, _prepared=prepared)
        assert plain.kernel is shared.kernel
        for a, b in zip(plain.scores, shared.scores):
            assert a.cross_entropy == b.cross_entropy
            assert a.embedding.tobytes() == b.embedding.tobytes()
            assert a.model.pooled_cov.tobytes() == b.model.pooled_cov.tobytes()

    @pytest.mark.parametrize("row", [0, 12, 30, 49])
    def test_non_finite_row_in_any_block_rejected(self, row):
        # An unlabelled row leaves the class means finite, so only the one
        # check of its block's rows can find it; at threads=2 the 50 rows
        # make four blocks, and the rows above fall in each of them.
        ds = random_dataset(np.random.default_rng(17), 50, 4, 2)
        features, labels = ds.features.copy(), ds.labels.copy()
        features[row, 1], labels[row] = np.nan, 0
        for threads in (1, 2):
            with pytest.raises(NonFiniteFeature):
                fit(Dataset(features, labels, 2), threads=threads)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        ds = random_dataset(np.random.default_rng(17), 30, 4, 2)
        features = ds.features.copy()
        features[7, 2] = value
        with pytest.raises(NonFiniteFeature):
            fit(Dataset(features, ds.labels, 2))


class TestPredictNew:
    def test_class_means_map_to_their_classes(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 90, 10, 3)
        model = fit(ds)
        labels, _ = predict_new(model, model.class_means)
        assert labels.tolist() == [1, 2, 3]

    def test_empty_input(self):
        rng = np.random.default_rng(8)
        model = fit(random_dataset(rng, 50, 6, 2))
        labels, post = predict_new(model, np.empty((0, 6)))
        assert labels.shape == (0,)
        assert post.shape == (0, 2)

    def test_training_rows_match_in_sample_path(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 70, 9, 3)
        model = fit(ds)
        labels, post = predict_new(model, ds.features)
        chosen = model.scores[model.kernel_ids.index(model.kernel.name)]
        assert np.array_equal(post, posterior(model.lda, chosen.embedding))
        assert np.array_equal(labels, predict(model.lda, chosen.embedding))

    def test_wrong_width(self):
        rng = np.random.default_rng(10)
        model = fit(random_dataset(rng, 50, 6, 2))
        with pytest.raises(DimensionMismatch):
            predict_new(model, np.zeros((3, 5)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, value):
        rng = np.random.default_rng(11)
        model = fit(random_dataset(rng, 50, 6, 2))
        X = rng.normal(size=(4, 6))
        X[2, 3] = value
        with pytest.raises(NonFiniteFeature):
            predict_new(model, X)

    def test_unfitted_model(self):
        with pytest.raises(NotFitted):
            predict_new(None, np.zeros((2, 2)))

    @pytest.mark.parametrize("kernels", [("linear",), ("linear", "spearman")])
    def test_row_slices_equal_rows_of_the_full_batch(self, kernels):
        ds = rescaled_pattern_dataset(n=200, p=30, k=4, seed=12)
        model = fit(ds, kernels=kernels)
        assert model.kernel.name == kernels[-1]
        rng = np.random.default_rng(13)
        X = rescaled_pattern_dataset(n=150, p=30, k=4, seed=14).features
        labels, post = predict_new(model, X)
        for _ in range(60):
            lo = int(rng.integers(0, X.shape[0]))
            hi = lo + int(rng.choice([1, 2, 3, 8, 17, 64]))
            part_labels, part_post = predict_new(model, X[lo:hi])
            assert np.array_equal(part_labels, labels[lo:hi])
            assert part_post.tobytes() == post[lo:hi].tobytes()

    @pytest.mark.parametrize("name", sorted(BUILTIN_KERNELS))
    def test_prepared_means_embed_like_the_raw_means(self, name):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, 90, 12, 4)
        model = fit(ds)
        kernel = BUILTIN_KERNELS[name]
        prepared = _prepare(model.class_means, kernel)
        X = rng.normal(size=(33, 12))
        raw = kernel_cross(X, model.class_means, kernel)
        assert kernel_cross(X, prepared, kernel).tobytes() == raw.tobytes()
        assert embed(X, prepared, kernel).tobytes() == raw.tobytes()
        for other in BUILTIN_KERNELS.values():
            assert kernel_cross(X, prepared, other).tobytes() == (
                kernel_cross(X, model.class_means, other).tobytes()
            )


def test_linear_only_pipeline_reaches_zero_error_at_scale():
    setting = SimSetting("normal-hd", n=500, p=100, num_classes=5, seed=0)
    config = EvalConfig(folds=5, replicates=1, seed=0, methods=("fast-linear",))
    report = cross_validate(setting, config)
    assert report.summary("fast-linear").error_mean <= 0.01


def test_spearman_choice_beats_forced_linear_in_cv():
    ds = rescaled_pattern_dataset(seed=1)
    config = EvalConfig(
        folds=5, replicates=2, seed=0, methods=("fast-multi", "fast-linear")
    )
    report = cross_validate(ds, config)
    multi = report.summary("fast-multi").error_mean
    linear = report.summary("fast-linear").error_mean
    assert linear - multi >= 0.10
