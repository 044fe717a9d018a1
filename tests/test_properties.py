"""Property-based invariants of ranking, the multi-kernel fit, CV and CSV."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

import kec.evaluation as evaluation
from kec import Dataset, fit, predict_new
from kec.evaluation import EvalConfig, cross_validate, kfold_split
from kec.io import read_csv, write_csv
from kec.kernels import DEFAULT_KERNELS, _rank_state

from helpers import random_dataset, rescaled_pattern_dataset


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    positions=st.lists(st.integers(0, 60), min_size=1, max_size=40),
)
def test_label_zero_rows_never_change_the_fit(seed, positions):
    """Unlabelled rows inserted anywhere leave every cross-entropy bitwise."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 60, 8, 3)
    extra = rng.normal(0.0, 3.0, size=(len(positions), 8))
    features = np.insert(ds.features, positions, extra, axis=0)
    labels = np.insert(ds.labels, positions, 0)
    base = fit(ds)
    grown = fit(Dataset(features, labels, 3))
    assert grown.cross_entropies.tobytes() == base.cross_entropies.tobytes()
    assert grown.kernel.name == base.kernel.name


# A small alphabet makes ties common; NaN, infinities and signed zeros
# are the values whose ordering is easiest to get wrong.
_RANK_VALUES = st.sampled_from(
    [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf, -np.inf, np.nan]
)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
        elements=_RANK_VALUES,
    )
)
def test_rank_state_matches_rankdata_bitwise(a):
    """Centered ranks are rankdata minus (p+1)/2; sums are the plain sums."""
    c, ss = _rank_state(a)
    ranks = c + (a.shape[-1] + 1) / 2
    want = rankdata(a, method="average", axis=-1)
    assert ranks.shape == want.shape and ranks.tobytes() == want.tobytes()
    assert ss.tobytes() == np.sum(c * c, axis=-1).tobytes()


def _cv_dataset(seed, rank_structured, tied):
    if rank_structured:
        ds = rescaled_pattern_dataset(n=60, p=10, k=3, seed=seed % 2**31)
    else:
        ds = random_dataset(np.random.default_rng(seed), 60, 10, 3, scale=3.0)
    if tied:  # repeated values exercise the tie pass on prepared features
        ds = Dataset(np.round(ds.features, 1), ds.labels, ds.num_classes)
    return ds


def _reference_records(ds, config):
    """Plain fit + predict_new on every masked fold, nothing shared."""
    out = []
    for rep in range(config.replicates):
        _, fold_seed = evaluation._replicate_seeds(config.seed, rep)
        for f, test_idx in enumerate(kfold_split(ds.n, config.folds, fold_seed)):
            labels = ds.labels.copy()
            labels[test_idx] = 0
            masked = Dataset(ds.features, labels, ds.num_classes)
            for method in config.methods:
                use = ("linear",) if method == "fast-linear" else DEFAULT_KERNELS
                predicted, _ = predict_new(fit(masked, use), ds.features[test_idx])
                error = float(np.mean(predicted != ds.labels[test_idx]))
                out.append((method, rep, f, error))
    return out


def _records(report):
    return [(r.method, r.replicate, r.fold, r.error) for r in report.records]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank_structured=st.booleans(),
    tied=st.booleans(),
    folds=st.integers(2, 4),
)
def test_cross_validate_matches_plain_fits_at_any_thread_count(
    seed, rank_structured, tied, folds
):
    """Shared preparation and embedding reuse change no fold record."""
    ds = _cv_dataset(seed, rank_structured, tied)
    base = dict(
        folds=folds, replicates=2, seed=seed, methods=("fast-linear", "fast-multi")
    )
    one = _records(cross_validate(ds, EvalConfig(threads=1, **base)))
    two = _records(cross_validate(ds, EvalConfig(threads=2, **base)))
    assert one == two
    assert one == _reference_records(ds, EvalConfig(**base))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank_structured=st.booleans())
def test_permuting_rows_permutes_the_outputs(seed, rank_structured):
    """Row order is not information: embeddings and predictions follow it.

    Class means sum their rows in a different order after a permutation,
    so fitted embeddings agree to rounding; predicting permuted rows with
    one model permutes its outputs bitwise.
    """
    ds = _cv_dataset(seed, rank_structured, tied=False)
    perm = np.random.default_rng(seed).permutation(ds.n)
    model = fit(ds)
    moved = fit(Dataset(ds.features[perm], ds.labels[perm], ds.num_classes))
    for a, b in zip(model.scores, moved.scores):
        assert np.allclose(b.embedding, a.embedding[perm], rtol=1e-9, atol=1e-12)
    assert np.allclose(moved.cross_entropies, model.cross_entropies, rtol=1e-9)
    labels, post = predict_new(model, ds.features)
    moved_labels, moved_post = predict_new(model, ds.features[perm])
    assert moved_labels.tobytes() == labels[perm].tobytes()
    assert moved_post.tobytes() == post[perm].tobytes()


# Signed zeros, subnormals and the largest magnitudes are the values a
# decimal round trip is most likely to lose.
_CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 8), p=st.integers(1, 6), k=st.integers(1, 4))
def test_csv_round_trip_is_exact(tmp_path_factory, data, n, p, k):
    """write_csv then read_csv gives back the features and labels bitwise."""
    features = data.draw(hnp.arrays(np.float64, (n, p), elements=_CSV_VALUES))
    labels = data.draw(hnp.arrays(np.int64, (n,), elements=st.integers(0, k)))
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_csv(path, Dataset(features, labels, k))
    back = read_csv(path, num_classes=k)
    assert back.features.shape == (n, p)
    assert back.features.tobytes() == features.tobytes()
    assert back.labels.tobytes() == labels.tobytes()
