import numpy as np
import pytest

from kec.errors import InvalidParams, UnsupportedSetting
from kec.simgen import (
    SETTINGS,
    SimSetting,
    analytic_means,
    generate,
    generate_with_transform,
)


def _column_means_by_class(ds):
    out = np.empty((ds.num_classes, ds.p))
    for k in range(ds.num_classes):
        out[k] = ds.features[ds.labels == k + 1].mean(axis=0)
    return out


def _six_sigma(var, count):
    return 6.0 * np.sqrt(var / count)


class TestDistributions:
    def test_uniform_hd_signal_and_noise_means(self):
        ds = generate(SimSetting("uniform-hd", n=20000, p=10, num_classes=5, seed=0))
        means = _column_means_by_class(ds)
        per_class = 20000 / 5
        tol_sig = _six_sigma(4.0 / 12.0, per_class)  # Var Uniform(1,3)
        tol_off = _six_sigma(1.0 / 12.0, per_class)
        for k in range(5):
            assert abs(means[k, k] - 2.0) < tol_sig
            off = [j for j in range(10) if j != k]
            assert np.all(np.abs(means[k, off] - 0.5) < tol_off)

    def test_normal_hd_signal_and_noise_means(self):
        ds = generate(SimSetting("normal-hd", n=20000, p=8, num_classes=4, seed=1))
        means = _column_means_by_class(ds)
        per_class = 20000 / 4
        tol = _six_sigma(1.0, per_class)
        for k in range(4):
            assert abs(means[k, k] - 8.0) < tol
            off = [j for j in range(8) if j != k]
            assert np.all(np.abs(means[k, off] - 1.0) < tol)

    @pytest.mark.parametrize(
        "name,sig,off",
        [
            ("uniform-noise", 2.25, 0.75),
            ("normal-noise", 9.0, 2.0),
        ],
    )
    def test_noise_variants_shift_means(self, name, sig, off):
        ds = generate(SimSetting(name, n=20000, p=6, num_classes=3, seed=2))
        means = _column_means_by_class(ds)
        for k in range(3):
            assert abs(means[k, k] - sig) < 0.1
            others = [j for j in range(6) if j != k]
            assert np.all(np.abs(means[k, others] - off) < 0.1)

    def test_transformed_matches_propagated_means(self):
        setting = SimSetting(
            "uniform-transformed", n=5000, p=20, num_classes=4, seed=3
        )
        ds, q = generate_with_transform(setting)
        ustar = analytic_means(setting, q)
        uhat = _column_means_by_class(ds)
        rel = np.linalg.norm(uhat - ustar) / np.linalg.norm(ustar)
        assert rel < 0.05

    def test_transformed_means_converge_with_n(self):
        errors = []
        for n in (300, 3000):
            medians = []
            for seed in range(5):
                setting = SimSetting(
                    "normal-transformed", n=n, p=15, num_classes=3, seed=seed
                )
                ds, q = generate_with_transform(setting)
                ustar = analytic_means(setting, q)
                medians.append(
                    np.linalg.norm(_column_means_by_class(ds) - ustar)
                )
            errors.append(np.median(medians))
        assert errors[1] < errors[0]


class TestAnalyticMeans:
    def test_uniform_hd_exact(self):
        m = analytic_means(SimSetting("uniform-hd", n=10, p=3, num_classes=2))
        assert m.tolist() == [[2.0, 0.5, 0.5], [0.5, 2.0, 0.5]]

    def test_noise_offsets_exact(self):
        base = analytic_means(SimSetting("uniform-hd", n=10, p=4, num_classes=2))
        noisy = analytic_means(SimSetting("uniform-noise", n=10, p=4, num_classes=2))
        assert np.array_equal(noisy, base + 0.25)
        nbase = analytic_means(SimSetting("normal-hd", n=10, p=4, num_classes=2))
        nnoise = analytic_means(SimSetting("normal-noise", n=10, p=4, num_classes=2))
        assert np.array_equal(nnoise, nbase + 1.0)

    def test_transformed_requires_q(self):
        with pytest.raises(UnsupportedSetting):
            analytic_means(SimSetting("normal-transformed", n=10, p=4, num_classes=2))


class TestContracts:
    def test_reproducibility_bit_identical(self):
        for name in SETTINGS:
            s = SimSetting(name, n=50, p=8, num_classes=3, seed=9)
            d1, d2 = generate(s), generate(s)
            assert np.array_equal(d1.features, d2.features)
            assert np.array_equal(d1.labels, d2.labels)

    def test_distinct_seeds_differ(self):
        a = generate(SimSetting("uniform-hd", n=50, p=8, num_classes=3, seed=0))
        b = generate(SimSetting("uniform-hd", n=50, p=8, num_classes=3, seed=1))
        assert not np.array_equal(a.features, b.features)

    def test_class_balance_bound(self):
        for seed in range(3):
            ds = generate(
                SimSetting("normal-hd", n=2000, p=10, num_classes=5, seed=seed)
            )
            counts = np.bincount(ds.labels, minlength=6)[1:]
            bound = 4.0 * np.sqrt(2000 * 0.2 * 0.8)
            assert np.all(np.abs(counts - 400) < bound)

    def test_q_redrawn_per_call(self):
        s1 = SimSetting("uniform-transformed", n=20, p=5, num_classes=2, seed=0)
        s2 = SimSetting("uniform-transformed", n=20, p=5, num_classes=2, seed=1)
        _, q1 = generate_with_transform(s1)
        _, q2 = generate_with_transform(s2)
        assert not np.array_equal(q1, q2)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParams):
            SimSetting("uniform-hd", n=10, p=3, num_classes=5)
        with pytest.raises(InvalidParams):
            SimSetting("gaussian-hd", n=10, p=10, num_classes=2)
        with pytest.raises(InvalidParams):
            SimSetting("uniform-hd", n=0, p=10, num_classes=2)
        with pytest.raises(InvalidParams, match="seed must be non-negative, got -1"):
            SimSetting("uniform-hd", n=10, p=10, num_classes=2, seed=-1)


def _documented_draws(setting):
    """A setting rebuilt from the module docstring's whole-matrix draws."""
    rng = np.random.default_rng(setting.seed)
    n, p, k = setting.n, setting.p, setting.num_classes
    labels = rng.integers(1, k + 1, size=n)
    if setting.name.startswith("uniform"):
        x = rng.uniform(0.0, 1.0, size=(n, p))
        signal, noise_scale = rng.uniform(1.0, 3.0, size=n), 0.5
    else:
        x = rng.normal(1.0, 1.0, size=(n, p))
        signal, noise_scale = rng.normal(8.0, 1.0, size=n), 2.0
    x[np.arange(n), labels - 1] = signal
    if not setting.name.endswith("-hd"):
        x += noise_scale * rng.uniform(0.0, 1.0, size=(n, p))
    transform = None
    if setting.name.endswith("-transformed"):
        transform = rng.uniform(0.0, 1.0, size=(p, p))
        x = x @ transform
    return x, labels, transform


# At p = 300 a noise piece holds 218 rows: 217 rows fit in one piece and
# 437 rows end one row into a third.
@pytest.mark.parametrize("name", SETTINGS)
@pytest.mark.parametrize("n, p", [(1, 5), (217, 300), (437, 300)])
def test_in_place_draws_equal_the_documented_calls(name, n, p):
    for seed in (0, 7):
        setting = SimSetting(name, n=n, p=p, num_classes=5, seed=seed)
        ds, transform = generate_with_transform(setting)
        x, labels, want = _documented_draws(setting)
        assert ds.features.tobytes() == x.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()
        assert (transform is None) == (want is None)
        assert transform is None or transform.tobytes() == want.tobytes()
