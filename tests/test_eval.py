import numpy as np
import pytest

import kec.evaluation as evaluation
from kec import Dataset
from kec.errors import InsufficientGrid, InvalidParams, TooFewSamples
from kec.evaluation import (
    EvalConfig,
    bench_scaling,
    cross_validate,
    kfold_split,
)
from kec.simgen import SimSetting, generate

from helpers import orthant_dataset, random_dataset


class TestKfold:
    def test_even_split(self):
        folds = kfold_split(10, 5, seed=0)
        assert [f.size for f in folds] == [2] * 5
        assert sorted(np.concatenate(folds).tolist()) == list(range(10))

    def test_uneven_split(self):
        folds = kfold_split(11, 5, seed=0)
        assert sorted(f.size for f in folds) == [2, 2, 2, 2, 3]
        assert sorted(np.concatenate(folds).tolist()) == list(range(11))

    def test_deterministic(self):
        a = kfold_split(30, 4, seed=7)
        b = kfold_split(30, 4, seed=7)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            kfold_split(3, 5, seed=0)


class TestConfig:
    def test_folds_lower_bound(self):
        with pytest.raises(InvalidParams):
            EvalConfig(folds=1)

    def test_replicates_lower_bound(self):
        with pytest.raises(InvalidParams):
            EvalConfig(replicates=0)

    def test_unknown_method(self):
        with pytest.raises(InvalidParams):
            EvalConfig(methods=("fast-linear", "svm"))


class TestCrossValidate:
    def test_separable_dataset_has_zero_error(self):
        ds = orthant_dataset(n=120, k=3)
        config = EvalConfig(folds=5, replicates=2, seed=0, methods=("fast-linear",))
        report = cross_validate(ds, config)
        assert report.summary("fast-linear").error_mean == 0.0

    def test_shuffled_labels_score_at_chance(self):
        rng = np.random.default_rng(0)
        n, k = 600, 5
        labels = np.repeat(np.arange(1, k + 1), n // k)[rng.permutation(n)]
        ds = Dataset(rng.normal(size=(n, 20)), labels, k)
        config = EvalConfig(folds=5, replicates=2, seed=1, methods=("fast-linear",))
        report = cross_validate(ds, config)
        assert abs(report.summary("fast-linear").error_mean - 0.8) < 0.06

    def test_mean_error_is_mean_of_fold_errors(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 80, 6, 3, scale=3.0)
        config = EvalConfig(folds=4, replicates=3, seed=2, methods=("fast-multi",))
        report = cross_validate(ds, config)
        errs = [r.error for r in report.records if r.method == "fast-multi"]
        assert report.summary("fast-multi").error_mean == pytest.approx(
            np.mean(errs), abs=1e-12
        )
        assert all(0.0 <= r.error <= 1.0 for r in report.records)
        assert all(r.seconds >= 0.0 for r in report.records)

    def test_fixed_seed_is_bit_identical(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 60, 5, 2, scale=2.0)
        config = EvalConfig(folds=3, replicates=1, seed=5, methods=("fast-linear",))
        r1 = cross_validate(ds, config)
        r2 = cross_validate(ds, config)
        e1 = [r.error for r in r1.records]
        e2 = [r.error for r in r2.records]
        assert e1 == e2
        assert r1.summary("fast-linear").error_mean == r2.summary("fast-linear").error_mean

    def test_simulation_source_redraws_per_replicate(self, monkeypatch):
        seen = []
        real_generate = evaluation.generate

        def spy(setting):
            seen.append(setting.seed)
            return real_generate(setting)

        monkeypatch.setattr(evaluation, "generate", spy)
        setting = SimSetting("uniform-hd", n=60, p=8, num_classes=2, seed=4)
        config = EvalConfig(folds=3, replicates=3, seed=6, methods=("fast-linear",))
        cross_validate(setting, config)
        assert len(seen) == 3
        assert len(set(seen)) == 3

    def test_masking_contract(self, monkeypatch):
        masked_sets = []
        real_fit = evaluation.fit

        def spy(dataset, *args, **kwargs):
            masked_sets.append(dataset.labels.copy())
            return real_fit(dataset, *args, **kwargs)

        monkeypatch.setattr(evaluation, "fit", spy)
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 40, 5, 2, scale=2.0)
        config = EvalConfig(folds=4, replicates=1, seed=8, methods=("fast-linear",))
        cross_validate(ds, config)
        assert len(masked_sets) == 4
        _, fold_seed = evaluation._replicate_seeds(8, 0)
        folds = kfold_split(40, 4, fold_seed)
        for masked, test_idx in zip(masked_sets, folds):
            assert np.all(masked[test_idx] == 0)
            train_idx = np.setdiff1d(np.arange(40), test_idx)
            assert np.array_equal(masked[train_idx], ds.labels[train_idx])

    def test_methods_share_folds_and_agree_on_linear_pipelines(self):
        # fast-linear and reference are the same classifier computed two
        # ways, so per-fold errors must coincide when folds are shared
        ds = generate(SimSetting("normal-hd", n=100, p=20, num_classes=3, seed=9))
        config = EvalConfig(
            folds=5, replicates=2, seed=10, methods=("fast-linear", "reference")
        )
        report = cross_validate(ds, config)
        fast = [r for r in report.records if r.method == "fast-linear"]
        ref = [r for r in report.records if r.method == "reference"]
        assert len(fast) == len(ref) == 10
        for a, b in zip(fast, ref):
            assert (a.replicate, a.fold) == (b.replicate, b.fold)
            assert a.error == b.error

    def test_threads_do_not_change_errors(self):
        setting = SimSetting("uniform-hd", n=60, p=8, num_classes=2, seed=11)
        base = dict(folds=3, replicates=2, seed=12, methods=("fast-multi",))
        r1 = cross_validate(setting, EvalConfig(threads=1, **base))
        r2 = cross_validate(setting, EvalConfig(threads=3, **base))
        assert [r.error for r in r1.records] == [r.error for r in r2.records]


class TestBenchScaling:
    def test_small_grid_mechanics(self):
        setting = SimSetting("normal-hd", n=2, p=10, num_classes=3, seed=0)
        report = bench_scaling(
            setting, [40, 80, 160, 320], kernels=("linear",), runs=2
        )
        assert set(report.slopes) == {"fast", "reference"}
        assert all(np.isfinite(s) for s in report.slopes.values())
        assert all(pt.median_seconds > 0 for pt in report.points)
        assert len(report.medians("fast")) == 4

    def test_grid_validation(self):
        setting = SimSetting("normal-hd", n=2, p=10, num_classes=3, seed=0)
        with pytest.raises(InsufficientGrid):
            bench_scaling(setting, [40, 80, 160])
        with pytest.raises(InsufficientGrid):
            bench_scaling(setting, [40, 80, 70, 320])
        with pytest.raises(InsufficientGrid):
            bench_scaling(setting, [40, 80, 160, 300])
        with pytest.raises(InvalidParams):
            bench_scaling(setting, [40, 80, 160, 320], paths=("fast", "gpu"))

    def test_runs_below_one_rejected(self):
        setting = SimSetting("normal-hd", n=2, p=10, num_classes=3, seed=0)
        with pytest.raises(InvalidParams, match="runs"):
            bench_scaling(setting, [40, 80, 160, 320], runs=0)

    def test_single_path_selection(self):
        setting = SimSetting("normal-hd", n=2, p=10, num_classes=3, seed=0)
        report = bench_scaling(
            setting, [40, 80, 160, 320], runs=1, paths=("fast",)
        )
        assert set(report.slopes) == {"fast"}
        assert report.medians("reference") == []

    def test_kernel_count_scales_time_proportionally(self):
        import time

        from kec.selection import fit

        ds = generate(SimSetting("normal-hd", n=4000, p=200, num_classes=5, seed=0))
        variants = {
            "single": ("linear",),
            "same3": ("linear", "linear", "linear"),
            "mixed3": ("linear", "distance", "spearman"),
        }
        for kernels in variants.values():
            fit(ds, kernels)  # warmup
        # interleaved best-of-N: the minimum is the measurement least
        # contaminated by scheduler contention
        best = {name: np.inf for name in variants}
        for _ in range(7):
            for name, kernels in variants.items():
                t0 = time.perf_counter()
                fit(ds, kernels)
                best[name] = min(best[name], time.perf_counter() - t0)
        # tripling M with a fixed per-kernel cost scales time by ~M,
        # diluted by the shared validate/means work
        assert 1.8 <= best["same3"] / best["single"] <= 4.0
        # the built-in set has unequal constants (ranking dominates) but
        # must stay a bounded multiple, never an n x n blowup
        assert 1.8 <= best["mixed3"] / best["single"] <= 30.0
