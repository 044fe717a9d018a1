"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import time

import numpy as np

import kec.evaluation as evaluation
from kec import Dataset, fit, predict_new, validate
from kec.encoder import build_U, build_weights, embed
from kec.evaluation import EvalConfig, bench_scaling, cross_validate, kfold_split
from kec.io import load_model, read_csv, save_model, write_csv
from kec.kernels import BUILTIN_KERNELS, _prepare, kernel_cross, kernel_gram
from kec.lda import posterior
from kec.reference import embed_reference
from kec.selection import cross_entropy
from kec.simgen import SimSetting, analytic_means, generate

from helpers import peak_bytes, random_dataset, rescaled_pattern_dataset

DESK = dict(p=500, num_classes=5)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def test_c1_fast_equals_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 301))
        p = int(rng.integers(2, 51))
        k = int(rng.integers(2, 7))
        ds = random_dataset(rng, n, p, k)
        labels = ds.labels.copy()
        mask = rng.random(n) < 0.1
        for c in range(1, k + 1):  # keep one row per class labeled
            mask[np.argmax(labels == c)] = False
        labels[mask] = 0
        masked = Dataset(ds.features, labels, k)
        w = build_weights(masked.labels, validate(masked))
        fast = embed(masked.features, build_U(masked.features, w), "linear")
        ref = embed_reference(masked, "linear")
        worst = max(worst, np.linalg.norm(fast - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "fast embedding equals reference",
        worst < 1e-10 and elapsed < 10.0,
        f"worst rel Frobenius {worst:.2e}, {elapsed:.1f}s",
    )


def test_c2_class_mean_convergence():
    start = time.perf_counter()
    setting = SimSetting("normal-hd", n=2, p=20, num_classes=3)
    ustar = analytic_means(setting)
    medians = []
    for n in (200, 2000, 20000):
        errs = []
        for seed in range(10):
            ds = generate(SimSetting("normal-hd", n=n, p=20, num_classes=3, seed=seed))
            w = build_weights(ds.labels, validate(ds))
            errs.append(np.linalg.norm(build_U(ds.features, w) - ustar))
        medians.append(float(np.median(errs)))
    elapsed = time.perf_counter() - start
    ok = medians[0] > medians[1] > medians[2] and medians[2] < 0.1
    _report(
        2,
        "class means converge to conditional expectations",
        ok and elapsed < 30.0,
        f"medians {[round(m, 4) for m in medians]}, {elapsed:.1f}s",
    )


def test_c3_margin_preservation():
    start = time.perf_counter()
    setting = SimSetting("normal-hd", n=20000, p=20, num_classes=3, seed=7)
    ustar = analytic_means(setting)
    ds = generate(setting)
    w = build_weights(ds.labels, validate(ds))
    z = embed(ds.features, build_U(ds.features, w), "linear")
    worst_ratio = np.inf
    for k in range(1, 4):
        for j in range(k + 1, 4):
            alpha = np.linalg.norm(ustar[k - 1] - ustar[j - 1])
            bound = alpha**2 / np.sqrt(2.0)
            sep = np.linalg.norm(
                z[ds.labels == k].mean(axis=0) - z[ds.labels == j].mean(axis=0)
            )
            worst_ratio = min(worst_ratio, sep / bound)
    elapsed = time.perf_counter() - start
    _report(
        3,
        "embedding preserves the mean-separation margin",
        worst_ratio >= 0.95 and elapsed < 30.0,
        f"worst sep/bound {worst_ratio:.4f}, {elapsed:.1f}s",
    )


def test_c4_simulation_error_convergence():
    start = time.perf_counter()
    config = EvalConfig(folds=5, replicates=3, seed=0, methods=("fast-linear",))
    plain = ("uniform-hd", "uniform-noise", "normal-hd", "normal-noise")
    transformed = ("uniform-transformed", "normal-transformed")
    results = {}
    ok = True
    for name in plain:
        err = cross_validate(
            SimSetting(name, n=500, **DESK), config
        ).summary("fast-linear").error_mean
        results[name] = err
        ok &= err <= 0.05
    for name in transformed:
        errs = {}
        for n in (100, 500):
            errs[n] = cross_validate(
                SimSetting(name, n=n, **DESK), config
            ).summary("fast-linear").error_mean
        results[name] = errs
        ok &= errs[500] <= 0.15 and errs[100] > errs[500]
    elapsed = time.perf_counter() - start
    _report(
        4,
        "desk-scale errors converge",
        ok and elapsed < 300.0,
        f"{results}, {elapsed:.1f}s",
    )


def test_c5_chance_level_on_shuffled_labels():
    rng = np.random.default_rng(42)
    n, k = 1000, 5
    labels = np.repeat(np.arange(1, k + 1), n // k)[rng.permutation(n)]
    ds = Dataset(rng.normal(size=(n, 50)), labels, k)
    config = EvalConfig(folds=5, replicates=2, seed=0, methods=("fast-linear",))
    err = cross_validate(ds, config).summary("fast-linear").error_mean
    _report(
        5,
        "shuffled labels score at chance",
        abs(err - 0.8) <= 0.05,
        f"error {err:.4f}",
    )


def test_c6_complexity_slopes():
    start = time.perf_counter()
    setting = SimSetting("normal-hd", n=2, p=200, num_classes=5, seed=0)
    report = bench_scaling(
        setting, [500, 1000, 2000, 4000, 8000], kernels=("linear",), runs=5
    )
    elapsed = time.perf_counter() - start
    fast, ref = report.slopes["fast"], report.slopes["reference"]
    _report(
        6,
        "train time scales linearly (fast) and superlinearly (reference)",
        0.7 <= fast <= 1.3 and ref >= 1.6 and elapsed < 180.0,
        f"fast slope {fast:.2f}, reference slope {ref:.2f}, {elapsed:.1f}s",
    )


def test_c7_kernel_selection_behavior():
    ds = rescaled_pattern_dataset(seed=1)
    model = fit(ds)
    config = EvalConfig(
        folds=5, replicates=2, seed=0, methods=("fast-multi", "fast-linear")
    )
    report = cross_validate(ds, config)
    multi = report.summary("fast-multi").error_mean
    linear = report.summary("fast-linear").error_mean
    plain = fit(generate(SimSetting("normal-hd", n=500, **DESK, seed=0)))
    ok = (
        model.kernel.name == "spearman"
        and linear - multi >= 0.10
        and plain.kernel.name == "linear"
    )
    _report(
        7,
        "kernel selection switches only when it helps",
        ok,
        f"rescaled selects {model.kernel.name} "
        f"(cv gap {linear - multi:.3f}), plain normal-hd keeps "
        f"{plain.kernel.name}",
    )


def test_c8_property_battery(tmp_path):
    rng = np.random.default_rng(8)
    checks = {}

    # kernel symmetry, scalar consistency, monotone invariance
    x = rng.normal(size=(7, 5))
    u = rng.normal(size=(3, 5))
    sym = all(
        np.allclose(kernel_gram(x, k), kernel_gram(x, k).T, atol=1e-12)
        for k in BUILTIN_KERNELS
    )
    cons = all(
        kernel_cross(x, u, name)[i, j] == BUILTIN_KERNELS[name].scalar(x[i], u[j])
        for name in BUILTIN_KERNELS
        for i in range(7)
        for j in range(3)
    )
    mono = all(
        BUILTIN_KERNELS["spearman"].scalar(np.exp(x[i]), u[j])
        == BUILTIN_KERNELS["spearman"].scalar(x[i], u[j])
        for i in range(7)
        for j in range(3)
    )
    checks["kernel properties"] = sym and cons and mono

    # posterior row-normalization
    ds = random_dataset(rng, 80, 6, 3)
    model = fit(ds)
    post = posterior(model.lda, model.scores[0].embedding)
    checks["posterior rows"] = bool(
        np.all(post >= 0)
        and np.all(post <= 1)
        and np.allclose(post.sum(axis=1), 1.0, atol=1e-9)
    )

    # cross-entropy identities
    v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    uniform = np.full((3, 2), 0.5)
    checks["cross-entropy identities"] = cross_entropy(v, v) == 0.0 and abs(
        cross_entropy(uniform, v) - 2 * np.log(2)
    ) < 1e-12

    # fold partition and masking contract
    folds = kfold_split(23, 5, seed=3)
    partition = sorted(np.concatenate(folds).tolist()) == list(range(23))
    sizes = {f.size for f in folds} <= {4, 5}
    masked_ok = []
    real_fit = evaluation.fit

    def spy(dataset, *args, **kwargs):
        masked_ok.append(dataset)
        return real_fit(dataset, *args, **kwargs)

    evaluation.fit = spy
    try:
        config = EvalConfig(folds=4, replicates=1, seed=5, methods=("fast-linear",))
        cross_validate(ds, config)
    finally:
        evaluation.fit = real_fit
    _, fold_seed = evaluation._replicate_seeds(5, 0)
    masking = all(
        np.all(d.labels[test_idx] == 0)
        for d, test_idx in zip(masked_ok, kfold_split(ds.n, 4, fold_seed))
    )
    checks["folds and masking"] = partition and sizes and masking

    # CSV and artifact round-trips
    csv_path = tmp_path / "roundtrip.csv"
    write_csv(csv_path, ds)
    back = read_csv(csv_path, num_classes=3)
    csv_ok = np.array_equal(back.features, ds.features) and np.array_equal(
        back.labels, ds.labels
    )
    model_path = tmp_path / "model.json"
    save_model(model_path, model)
    loaded = load_model(model_path)
    x_new = rng.normal(size=(15, 6))
    l1, p1 = predict_new(model, x_new)
    l2, p2 = predict_new(loaded, x_new)
    checks["round-trips"] = csv_ok and np.array_equal(l1, l2) and np.array_equal(p1, p2)

    # determinism under fixed seeds
    s = SimSetting("uniform-noise", n=60, p=10, num_classes=3, seed=11)
    d1, d2 = generate(s), generate(s)
    m1, m2 = fit(d1), fit(d2)
    checks["determinism"] = np.array_equal(d1.features, d2.features) and np.array_equal(
        m1.cross_entropies, m2.cross_entropies
    )

    # parallel-schedule independence
    mt = fit(d1, threads=3)
    r1 = cross_validate(
        d1, EvalConfig(folds=3, replicates=2, seed=1, methods=("fast-multi",), threads=1)
    )
    r3 = cross_validate(
        d1, EvalConfig(folds=3, replicates=2, seed=1, methods=("fast-multi",), threads=3)
    )
    checks["parallel independence"] = np.array_equal(
        m1.cross_entropies, mt.cross_entropies
    ) and [r.error for r in r1.records] == [r.error for r in r3.records]

    failing = [name for name, ok in checks.items() if not ok]
    _report(8, "property suites", not failing, f"failing: {failing or 'none'}")


def _slope(ns, values) -> float:
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def test_c9_no_n_by_n_matrix():
    """A three-kernel fit allocates O(np) bytes; the reference's Gram is O(n^2).

    tracemalloc counts allocations, not time, so no clock enters. A 1e9
    offset sends every distance entry to the x - u path, which must stay
    within the same bounds: a fit's peak may not exceed 4 n p 8 bytes, and
    the distance cross step of the n prepared offset rows, chunked, may
    not allocate half of their own n p 8 bytes.
    """
    start = time.perf_counter()
    ns = [500, 1000, 2000, 4000]
    p = 100
    fast, offset, ref = [], [], []
    for n in ns:
        ds = generate(SimSetting("normal-hd", n=n, p=p, num_classes=5, seed=0))
        shifted = Dataset(ds.features + 1e9, ds.labels, ds.num_classes)
        fast.append(peak_bytes(lambda: fit(ds, threads=2)))
        offset.append(peak_bytes(lambda: fit(shifted, threads=2)))
        ref.append(peak_bytes(lambda: embed_reference(ds, "linear")))
    X, U = (_prepare(a, "distance") for a in (shifted.features, shifted.features[:5]))
    cross = peak_bytes(lambda: kernel_cross(X, U, "distance")) / (ns[-1] * p * 8)
    elapsed = time.perf_counter() - start
    slopes = [_slope(ns, v) for v in (fast, offset, ref)]
    worst = max(b / (n * p * 8) for v in (fast, offset) for n, b in zip(ns, v))
    _report(
        9,
        "no n x n matrix",
        max(slopes[:2]) <= 1.3 and slopes[2] >= 1.8 and worst <= 4.0 and cross < 0.5,
        f"peak slopes fast {slopes[0]:.2f}, offset {slopes[1]:.2f}, reference "
        f"{slopes[2]:.2f}; largest fast peak {worst:.2f} n p 8 bytes, offset "
        f"cross step {cross:.2f}; {elapsed:.1f}s",
    )
