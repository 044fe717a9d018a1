"""Property-based invariants of kernels, ranking, the multi-kernel fit, CV,
CSV and the model artifact."""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

import kec.encoder
import kec.kernels as kmod
import kec.evaluation as evaluation
from kec import Dataset, embed, fit, predict_new
from kec.errors import (
    InvalidParams,
    KecError,
    NonFiniteFeature,
    NumericOverflow,
    SingularCovariance,
)
from kec.evaluation import EvalConfig, bench_scaling, cross_validate, kfold_split
from kec.cli import main
from kec.io import load_model, read_csv, save_model, write_csv
from kec.lda import LdaModel, discriminant_scores, fit_lda, posterior, predict
from kec.parallel import resolve_threads
from kec.selection import cross_entropy
from kec.reference import embed_reference
from kec.simgen import SimSetting, generate
from kec.kernels import (
    BUILTIN_KERNELS,
    DEFAULT_KERNELS,
    _EXACT_SS_LENGTH,
    _distance_state,
    _prepare,
    _rank_state,
    _sq_distances,
    kernel_cross,
    kernel_gram,
)

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


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# p = 9000 is past 8192, numpy's default iterator buffer, at which a
# reduction could be split; the drawn p covers the short rows and odd
# lengths whose SIMD tails are handled apart.
@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILTIN_KERNELS)),
    p=st.integers(1, 1100),
    n=st.integers(1, 12),
    k=st.integers(1, 6),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="linear", p=9000, n=5, k=3, tied=False, seed=0)
@example(name="distance", p=9000, n=5, k=3, tied=False, seed=1)
@example(name="spearman", p=9000, n=5, k=3, tied=True, seed=2)
@example(name="linear", p=9000, n=1, k=1, tied=False, seed=3)
@example(name="distance", p=9000, n=1, k=1, tied=False, seed=4)
def test_cross_rows_do_not_depend_on_the_call(name, p, n, k, tied, seed):
    """Each entry of kernel_cross depends on its own two rows alone, bitwise.

    Row subsets are views at row offsets 0, 1 and 3 (for odd p their data
    is not aligned as the full matrix's is); the other operands are single
    rows on either side, every one-pair call, X stacked twice, a copy of X
    one byte off float64 alignment, and operands prepared for the kernel on
    either side.
    """
    p = max(p, 2) if name == "spearman" else p
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    U = rng.normal(size=(k, p))
    if tied:
        X, U = np.round(X), np.round(U)
    full = kernel_cross(X, U, name)
    for start in (0, 1, 3):
        if start < n:
            stop = start + (n - start + 1) // 2
            sub = kernel_cross(X[start:stop], U, name)
            assert _same_bits(sub, full[start:stop])
    for i in range(n):
        assert _same_bits(kernel_cross(X[i : i + 1], U, name), full[i : i + 1])
    for j in range(k):
        assert _same_bits(kernel_cross(X, U[j : j + 1], name), full[:, j : j + 1])
        for i in range(n):
            pair = kernel_cross(X[i : i + 1], U[j : j + 1], name)
            assert _same_bits(pair, full[i : i + 1, j : j + 1])
    assert _same_bits(kernel_cross(np.vstack([X, X]), U, name)[:n], full)
    misaligned = np.ndarray(X.shape, X.dtype, np.zeros(X.nbytes + 1, np.uint8), 1)
    misaligned[...] = X
    assert _same_bits(kernel_cross(misaligned, U, name), full)
    PX, PU = _prepare(X, name), _prepare(U, name)
    assert _same_bits(kernel_cross(PX, PU, name), full)
    assert _same_bits(kernel_cross(X[1:], PU, name), full[1:])
    assert _same_bits(kernel_cross(PX, U[k // 2 :], name), full[:, k // 2 :])


def _direct_distance(X, U):
    """Squared distances and distance kernel values from x - u for every entry.

    The form before the expansion: a (rows, K, p) difference buffer summed
    by numpy's einsum loop.
    """
    d = X[:, None, :] - U[None, :, :]
    sq = np.einsum("ikp,ikp->ik", d, d, optimize=False)
    nx, nu = np.sqrt(np.sum(X * X, axis=-1)), np.sqrt(np.sum(U * U, axis=-1))
    return sq, (nx[:, None] + nu[None, :] - np.sqrt(sq)) / 2.0


def _fsum_of_squares(v) -> float:
    """sum v_s^2 rounded once from the rounded squares; inf past float64's range."""
    try:
        return math.fsum(v * v)
    except OverflowError:
        return math.inf


def _cancellation_operands(case, n, p, k, rng):
    X = rng.normal(size=(n, p))
    U = rng.normal(size=(k, p))
    near = rng.integers(0, n, size=k)
    if case == "near":
        # u = x + delta, relative delta 1e-1 .. 1e-7: squared distances on
        # both sides of T S, and some right at it
        delta = 10.0 ** -rng.uniform(1, 7, size=(k, 1))
        U[::2] = (X[near] * (1 + delta * rng.normal(size=(k, p))))[::2]
    elif case == "equal":
        U[::2] = X[near][::2]
        X[-1] = U[0] = 0.0
    elif case == "offset":
        shift = 1e9 * rng.uniform(1, 2, size=p)
        X, U = X + shift, U + shift
    else:  # "huge": ||x||^2 and ||u||^2 near 0.6 of float64's range, so S overflows
        X *= np.sqrt(0.6 * np.finfo(float).max) / np.linalg.norm(X, axis=1, keepdims=True)
        U = X[near] * (1 + 1e-3 * rng.normal(size=(k, p)))
    return X, U


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(["near", "equal", "offset", "huge"]),
    p=st.integers(1, 64),
    n=st.integers(1, 8),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(case="near", p=40, n=8, k=4, seed=0)
@example(case="equal", p=7, n=5, k=3, seed=1)
@example(case="offset", p=30, n=6, k=2, seed=2)
@example(case="huge", p=64, n=4, k=3, seed=3)
@example(case="offset", p=9000, n=3, k=2, seed=4)
def test_distance_cancellation_path(case, p, n, k, seed):
    """Distance entries near cancellation equal the x - u form; the rest keep its bound.

    An entry the expansion keeps is within (2p + 1) eps S + eps s of the
    fsum reference s, plus the reference's own 4 eps s and an eps s for
    second-order terms. An entry at s <= T S / 2, or with S past
    float64's range, is the x - u form bitwise. Every squared distance is
    the same in a one-row or one-column call (p = 9000 is past numpy's
    8192-element buffer), every entry equals the scalar kernel bitwise,
    no warning is raised, and no entry that the x - u form has finite
    turns NaN or infinite.
    """
    X, U = _cancellation_operands(case, n, p, k, np.random.default_rng(seed))
    PX, PU = _prepare(X, "distance"), _prepare(U, "distance")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sq = _sq_distances(PX, PU)
        out = kernel_cross(X, U, "distance")
        scalar = [[BUILTIN_KERNELS["distance"].scalar(x, u) for u in U] for x in X]
    with np.errstate(over="ignore", invalid="ignore"):
        want_sq, want = _direct_distance(X, U)
        (_, sx), (_, su) = PX.states[_distance_state], PU.states[_distance_state]
        S = sx[:, None] + su[None, :]
        ref = np.array([[_fsum_of_squares(x - u) for u in U] for x in X])
    eps, T = 2.0**-53, (2 * p + 1) * 2.0**-27
    direct = sq.view(np.int64) == want_sq.view(np.int64)
    assert _same_bits(out[direct], want[direct])
    must = ~np.isfinite(S) | (ref <= T * S / 2)
    assert np.all(direct[must])
    kept = ~direct
    bound = (2 * p + 1) * eps * S[kept] + 6 * eps * ref[kept]
    assert np.all(np.abs(sq[kept] - ref[kept]) <= bound)
    if case in ("offset", "huge"):
        assert direct.all()
    for i in range(n):
        assert _same_bits(_sq_distances(PX.row_slice(slice(i, i + 1)), PU), sq[i : i + 1])
    for j in range(k):
        assert _same_bits(_sq_distances(PX, PU.row_slice(slice(j, j + 1))), sq[:, j : j + 1])
    assert _same_bits(out, np.array(scalar).reshape(n, k))
    assert np.all(np.isfinite(out[np.isfinite(want)]))


def _fit_dataset(case, n, p, k, seed):
    """A dataset on whose class means the rows of a case land.

    For a cancellation case the n rows X are unlabelled and class j has
    four training rows u_j (1 + z_r), with the z_r centred, whose mean is
    u_j to within rounding, so X meets the class means near cancellation
    as it meets U. "ranks" is rescaled rank patterns rounded to one
    decimal (ties), whose first 2k rows are relabelled so that every
    class is present.
    """
    rng = np.random.default_rng(seed)
    if case == "ranks":
        ds = rescaled_pattern_dataset(n=n + 2 * k, p=p, k=k, seed=seed)
        labels = ds.labels.copy()
        labels[: 2 * k] = np.tile(np.arange(1, k + 1), 2)
        return Dataset(np.round(ds.features, 1), labels, k)
    X, U = _cancellation_operands(case, n, p, k, rng)
    z = 0.1 * rng.normal(size=(4, k, p))
    z -= z.mean(axis=0)
    labels = np.concatenate(
        [np.zeros(n, dtype=np.int64), np.tile(np.arange(1, k + 1), 4)]
    )
    return Dataset(np.vstack([X, *(U * (1 + z))]), labels, k)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(["near", "equal", "offset", "huge", "ranks"]),
    p=st.integers(2, 48),
    n=st.integers(1, 12),
    k=st.integers(2, 4),
    threads=st.sampled_from([1, 2]),
    shared=st.sampled_from([None, (), DEFAULT_KERNELS, ("spearman",)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(case="near", p=40, n=12, k=4, threads=2, shared=None, seed=0)
@example(case="equal", p=7, n=5, k=3, threads=2, shared=DEFAULT_KERNELS, seed=1)
@example(case="offset", p=30, n=6, k=2, threads=1, shared=("spearman",), seed=2)
@example(case="huge", p=48, n=4, k=3, threads=2, shared=(), seed=3)
@example(case="ranks", p=20, n=10, k=3, threads=2, shared=DEFAULT_KERNELS, seed=4)
def test_fit_embeds_each_kernel_like_kernel_cross(case, p, n, k, threads, shared, seed):
    """Every embedding of a fit is kernel_cross of its rows and class means, bitwise.

    A fit checks each row block once for all its kernels and takes
    distance's x.u from the block's linear embedding; each of its cross
    steps equals kernel_cross on plain copies of the same operands, and
    each kernel's steps cover every row once. A fit that succeeds holds
    kernel_cross(features, class means) for each candidate. Features are
    raw (None), or one operand converted and checked and prepared for no
    kernel, every candidate or spearman alone, as a cross-validation
    replicate passes them; threads 1 and 2.
    """
    ds = _fit_dataset(case, n, p, k, seed)
    prepared = None if shared is None else _prepare(ds.features, *shared)
    calls = []
    real_cross = kec.encoder.kernel_cross

    def spy_cross(x, u, kernel):
        out = real_cross(x, u, kernel)
        calls.append((np.array(x), np.array(u), kernel, out))  # list.append is atomic
        return out

    with mock.patch.object(kec.encoder, "kernel_cross", spy_cross):
        try:
            model = fit(ds, threads=threads, _prepared=prepared)
        except (NumericOverflow, SingularCovariance):
            model = None  # the LDA step failed; every embedding was made
    with np.errstate(over="ignore", invalid="ignore"):
        for x, u, kernel, out in calls:
            assert _same_bits(out, kernel_cross(x, u, kernel))
        for name in DEFAULT_KERNELS:
            kernel = BUILTIN_KERNELS[name]
            assert sum(len(x) for x, _, kk, _ in calls if kk is kernel) == ds.n
        if model is not None:
            for score in model.scores:
                want = kernel_cross(ds.features, model.class_means, score.kernel)
                assert _same_bits(score.embedding, want)


# A small alphabet makes ties common; signed zeros beside the smallest
# subnormals are the finite values whose ordering is easiest to get wrong.
_RANK_VALUES = st.sampled_from(
    [-2.0, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0, 3.0]
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


_SIGN = np.int64(-(2**63))
_MAX_BITS = np.float64(np.finfo(float).max).view(np.int64)
_EXPONENT_LSB = np.int64(1 << 52)


def _adversarial_bits(rng, m, p):
    """An (m, p) int64 matrix of finite float64 bit patterns that are hard to rank.

    Ranking packs each column into the low b = bit_length(p - 1) mantissa
    bits of its value's sort key, so rows mix runs of neighbouring floats
    closer than 2^b ulps, signed zeros beside signed subnormals, and +-max
    finite in column 0 and elsewhere, over raw random bit patterns. A raw
    pattern of NaN or +-inf has its lowest exponent bit cleared, which
    makes it finite: operands are checked finite before they are ranked.
    """
    b = max(p - 1, 0).bit_length()
    rows = rng.integers(-(2**63), 2**63, size=(m, p), dtype=np.int64)
    rows[~np.isfinite(rows.view(np.float64))] &= ~_EXPONENT_LSB
    starts = np.array([1.0, -1.0, 0.0, -0.0, 1e300, -3.5]).view(np.int64)
    for row in rows:
        kind = rng.integers(3)
        if kind == 1:  # a run of neighbours around one start
            row[:] = rng.choice(starts) + rng.integers(0, 2 ** (b + 1), p)
        elif kind == 2:  # signed zeros and subnormals, both sides of zero
            row[:] = rng.integers(0, 4, p) | (rng.integers(0, 2, p) * _SIGN)
        specials = rng.integers(0, min(p, 6) + 1) if rng.random() < 0.5 else 0
        cols = rng.choice(p, specials, replace=False)
        row[cols] = _MAX_BITS | (rng.integers(0, 2, specials) * _SIGN)
        if rng.random() < 0.2:
            row[0] = _MAX_BITS | (rng.integers(0, 2) * _SIGN)
    return rows


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([1, 2, 255, 256, 257, 511, 512, 513]),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=_EXACT_SS_LENGTH + 1, m=1, seed=3)
def test_rank_state_on_adversarial_bit_patterns(p, m, seed):
    """Ranks of rows built from raw finite bit patterns match rankdata bitwise."""
    a = _adversarial_bits(np.random.default_rng(seed), m, p).view(np.float64)
    assert np.isfinite(a).all()
    c, ss = _rank_state(a)
    ranks = c + (p + 1) / 2
    assert ranks.tobytes() == rankdata(a, method="average", axis=-1).tobytes()
    assert ss.tobytes() == np.sum(c * c, axis=-1).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    a=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 9)),
        elements=_RANK_VALUES,
    ),
    names=st.lists(st.sampled_from(sorted(BUILTIN_KERNELS)), unique=True),
    start=st.integers(0, 12),
    stop=st.integers(0, 12),
)
def test_row_slice_equals_preparing_the_rows(a, names, start, stop):
    """Cutting an operand prepared for a set of kernels to rows equals
    preparing those rows for the same kernels, bitwise, state by state."""
    rows = slice(start, stop)
    cut, want = _prepare(a, *names).row_slice(rows), _prepare(a[rows], *names)
    assert _same_bits(cut.rows, want.rows)
    fns = list(dict.fromkeys(BUILTIN_KERNELS[n].state for n in names))
    assert list(cut.states) == list(want.states) == fns
    for fn, state in want.states.items():
        assert len(cut.states[fn]) == len(state)
        for got, expected in zip(cut.states[fn], state):
            assert _same_bits(got, expected)


def _piece_rows_operand(rng, n, p):
    """An (n, p) operand mixing plain, tied, near-tied and adversarial rows.

    A near-tied row holds pairs of neighbouring floats whose packed keys
    sort the larger value first (same high bits, smaller column), so it
    takes the argsort redo of ``_ascending_order``; tied rows take the
    tie pass. Each row draws its kind, so every kind lands in any piece.
    """
    a = rng.normal(size=(n, p))
    kind = rng.integers(0, 4, n)
    a[kind == 1] = rng.integers(0, 3, size=(int((kind == 1).sum()), p))
    mask = np.int64((1 << max(p - 1, 0).bit_length()) - 1)
    bits = np.abs(a[kind == 2]).view(np.int64) & ~mask
    bits[:, 1::2] = bits[:, 0 : p - 1 : 2]
    bits[:, 0 : p - 1 : 2] |= 1
    a[kind == 2] = bits.view(np.float64)
    a[kind == 3] = _adversarial_bits(rng, int((kind == 3).sum()), p).view(np.float64)
    return a


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 8, 65, 300]),
    piece=st.integers(1, 5),
    pieces=st.integers(1, 4),
    edge=st.sampled_from([-1, 0, 1]),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=kmod._CHUNK_ELEMS + 3, piece=1, pieces=2, edge=1, wide=False, seed=1)
def test_states_in_row_pieces_equal_the_whole_operand(p, piece, pieces, edge, wide, seed):
    """Ranks, rank sums of squares, norms and squared norms built in row
    pieces equal those of the whole operand as one piece, bitwise, at
    k * piece +- 1 rows and for rows wider than one piece."""
    budget = max(1, p // 2) if wide else piece * p
    n = max(1, pieces * piece + edge)
    a = _piece_rows_operand(np.random.default_rng(seed), n, p)
    with np.errstate(over="ignore"):
        with mock.patch.object(kmod, "_CHUNK_ELEMS", n * p):
            whole = _rank_state(a) + _distance_state(a)
        if p > kmod._CHUNK_ELEMS:  # the example: wider than the real budget
            got = _rank_state(a) + _distance_state(a)
        else:
            with mock.patch.object(kmod, "_CHUNK_ELEMS", budget):
                got = _rank_state(a) + _distance_state(a)
    for g, w in zip(got, whole):
        assert _same_bits(g, w)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILTIN_KERNELS)),
    n=st.integers(1, 6),
    k=st.integers(1, 4),
    p=st.integers(2, 9),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    in_x=st.booleans(),
    cell=st.tuples(st.integers(0, 99), st.integers(0, 99)),
    labelled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_finite_operands_raise_everywhere(
    name, n, k, p, bad, in_x, cell, labelled, seed
):
    """A NaN or +-inf anywhere in either operand raises NonFiniteFeature.

    So do kernel_cross, the scalar kernel, kernel_gram and embed on it,
    a fit whose features hold it (in a labelled row, so a class mean is
    not finite, or in an unlabelled one), and predict_new on it; no
    RuntimeWarning is raised on the way.
    """
    rng = np.random.default_rng(seed)
    X, U = rng.normal(size=(n, p)), rng.normal(size=(k, p))
    A = X if in_x else U
    i, j = cell[0] % A.shape[0], cell[1] % p
    A[i, j] = bad
    x, u = (A[i], U[0]) if in_x else (X[0], A[i])
    clean = random_dataset(rng, 30, p, 2)
    model = replace(fit(clean, ("linear",)), kernel=BUILTIN_KERNELS[name])
    features = np.vstack([clean.features, A])
    labels = np.concatenate([clean.labels, np.full(len(A), 0)])
    labels[len(clean.labels) + i] = 1 if labelled else 0
    use = tuple(dict.fromkeys(("linear", name)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (
            lambda: kernel_cross(X, U, name),
            lambda: BUILTIN_KERNELS[name].scalar(x, u),
            lambda: kernel_gram(A, name),
            lambda: embed(X, U, name),
            lambda: fit(Dataset(features, labels, 2), use, threads=2),
            lambda: predict_new(model, A),
        ):
            with pytest.raises(NonFiniteFeature):
                call()


def tanh_inner(x, u):
    """A custom kernel, evaluated by the generic per-pair loop."""
    return float(np.tanh(np.dot(x, u)))


def _fit_bits(ds, threads):
    """Every fitted array of a four-kernel fit, or the error it raised."""
    try:
        model = fit(ds, DEFAULT_KERNELS + (tanh_inner,), threads=threads)
    except KecError as exc:
        return type(exc), str(exc)
    return [model.kernel.name, model.cross_entropies.tobytes()] + [
        a.tobytes()
        for s in model.scores
        for a in (s.embedding, s.model.means, s.model.pooled_cov, s.model.priors)
    ]


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 5, 97, 2000]),
    p=st.integers(2, 9),
    k=st.integers(1, 3),
    tied=st.booleans(),
    unlabelled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, p=3, k=1, tied=False, unlabelled=False, seed=0)
@example(n=2000, p=9, k=3, tied=True, unlabelled=True, seed=1)
def test_fit_is_bitwise_equal_at_any_thread_count(n, p, k, tied, unlabelled, seed):
    """Row blocks sized from the thread count never change a bit of the fit.

    Fits too small to succeed must fail the same way at every count.
    """
    rng = np.random.default_rng(seed)
    k = min(k, n)
    labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
    if unlabelled:
        labels[k:][rng.random(n - k) < 0.3] = 0
    X = rng.normal(size=(k, p))[np.maximum(labels, 1) - 1] + rng.normal(size=(n, p))
    ds = Dataset(np.round(X) if tied else X, labels, k)
    one = _fit_bits(ds, 1)
    for threads in (2, 3):
        assert _fit_bits(ds, threads) == one


def _lda_case(seed, k, d, log_offset, m=60):
    """A fitted LdaModel and rows to score, all shifted by about 10^log_offset.

    The common offset is what the centring on c is for: the linear
    embedding of shifted features puts every class mean far from the
    origin while they differ by a few units.
    """
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, m - k)])
    mix = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    shift = 10.0**log_offset * rng.uniform(1, 2, size=d)
    Z = rng.normal(size=(m, d)) @ mix + rng.normal(0.0, 3.0, (k, d))[y - 1] + shift
    rows = shift + rng.normal(0.0, 6.0, size=(37, d)) @ mix
    return fit_lda(Z, y, k), rows


_LDA_CASE = dict(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 12),
    d=st.integers(1, 12),
    log_offset=st.integers(0, 9),
)


@settings(max_examples=60, deadline=None)
@given(**_LDA_CASE, lo=st.integers(0, 36), size=st.integers(1, 37))
@example(seed=0, k=10, d=10, log_offset=7, lo=3, size=9)
def test_lda_rows_score_alone_as_in_the_batch(seed, k, d, log_offset, lo, size):
    """Scores and posteriors of any rows equal the full batch's rows, bitwise.

    Covers contiguous slices, every one-row batch, a gathered subset in
    reverse and a copy one byte off float64 alignment.
    """
    model, rows = _lda_case(seed, k, d, log_offset)
    for score in (discriminant_scores, posterior):
        full = score(model, rows)
        assert _same_bits(score(model, rows[lo : lo + size]), full[lo : lo + size])
        for i in range(rows.shape[0]):
            assert _same_bits(score(model, rows[i : i + 1]), full[i : i + 1])
        picked = np.arange(rows.shape[0])[::-3]
        assert _same_bits(score(model, rows[picked]), full[picked])
        buffer = np.zeros(rows.nbytes + 1, np.uint8)
        misaligned = np.ndarray(rows.shape, rows.dtype, buffer, 1)
        misaligned[...] = rows
        assert _same_bits(score(model, misaligned), full)


def _difference_scores(model, Z):
    """Scores in the difference form: each row minus each class mean, then whitened.

    Also returns, per entry, m = || |W| (|z - c| + |mu_k - c|) ||, which
    bounds the whitened vectors both forms square and so the size of
    their rounding.
    """
    diff = Z[:, None, :] - model.means[None, :, :]
    w = diff @ model.whiten.T
    scores = np.log(model.priors) - 0.5 * np.sum(w * w, axis=-1)
    spread = np.abs(Z - model.center)[:, None, :] + np.abs(model.means - model.center)
    m = np.linalg.norm(spread @ np.abs(model.whiten).T, axis=-1)
    return scores, m


@settings(max_examples=80, deadline=None)
@given(**_LDA_CASE)
def test_lda_scores_match_the_difference_form(seed, k, d, log_offset):
    """The expanded scores stay within 8 (d + 2) eps (m^2 + |log prior|) of
    the difference form, where m measures the entry's whitened vectors from
    the centre c (see ``_difference_scores``): the bound grows with the
    spread of rows and means about c, not with their distance from 0."""
    model, rows = _lda_case(seed, k, d, log_offset)
    for Z in (rows, model.means):
        want, m = _difference_scores(model, Z)
        eps = np.finfo(float).eps
        bound = 8 * (d + 2) * eps * (m * m + np.abs(np.log(model.priors)))
        assert np.all(np.abs(discriminant_scores(model, Z) - want) <= bound)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank_structured=st.booleans(),
    unlabelled=st.floats(0.0, 0.5),
)
def test_fit_cross_entropies_are_full_batch_posteriors(
    seed, rank_structured, unlabelled
):
    """A fit scores only its training rows, yet each cross-entropy is bitwise
    the one of the posteriors of every row of its embedding."""
    ds = _cv_dataset(seed, rank_structured, tied=False)
    labels = ds.labels.copy()
    labels[np.random.default_rng(seed).random(ds.n) < unlabelled] = 0
    labels[: ds.num_classes] = np.arange(1, ds.num_classes + 1)
    ds = Dataset(ds.features, labels, ds.num_classes)
    one_hot = np.zeros((ds.n, ds.num_classes))
    trn = np.flatnonzero(labels > 0)
    one_hot[trn, labels[trn] - 1] = 1.0
    model = fit(ds)
    for s in model.scores:
        full = cross_entropy(posterior(s.model, s.embedding), one_hot)
        assert np.float64(full).tobytes() == np.float64(s.cross_entropy).tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank_structured=st.booleans())
def test_lda_scores_agree_across_threads_and_save_load(
    tmp_path_factory, seed, rank_structured
):
    """Scores and posteriors are bitwise the same from fits at 1 and 2 threads
    and from each fit's model after save and load."""
    ds = _cv_dataset(seed, rank_structured, tied=False)
    x = np.random.default_rng(seed).normal(0.0, 3.0, size=(23, ds.p))
    tmp = tmp_path_factory.mktemp("lda")
    outputs = []
    for threads in (1, 2):
        model = fit(ds, threads=threads)
        save_model(tmp / f"{threads}.json", model)
        for m in (model, load_model(tmp / f"{threads}.json")):
            labels, post = predict_new(m, x)
            lda = m.lda
            rebuilt = LdaModel(lda.means, lda.pooled_cov, lda.priors, lda.ridge)
            outputs.append(
                [labels.tobytes(), post.tobytes()]
                + [discriminant_scores(a, lda.means).tobytes() for a in (lda, rebuilt)]
                + [a.tobytes() for a in (rebuilt.center, rebuilt.anchors, rebuilt.offsets)]
            )
    assert all(out == outputs[0] for out in outputs)


@settings(max_examples=40, deadline=None)
@given(s=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
@example(s=200, seed=0)
@example(s=-300, seed=0)
def test_scaled_data_gives_finite_posteriors_or_a_kec_error(s, seed):
    """Features times 10^s: finite posteriors, or a KecError and no warning.

    Covers a fit on the scaled rows, predict_new on them with a model
    fitted on either scale, and cross-validation of all three methods
    (a fold runs its fits, then the reference pipeline, and stops at its
    first error); warnings are errors under this suite.
    """
    ds = random_dataset(np.random.default_rng(seed), 60, 4, 3)
    scaled = Dataset(ds.features * 10.0**s, ds.labels, ds.num_classes)
    for train in (ds, scaled):
        try:
            model = fit(train, threads=2)
            _, post = predict_new(model, scaled.features)
        except KecError:
            continue
        assert np.isfinite(model.cross_entropies).all()
        assert np.isfinite(post).all()
    config = EvalConfig(
        folds=2, replicates=1, methods=("reference", "fast-linear", "fast-multi")
    )
    try:
        cross_validate(scaled, config)
    except KecError:
        pass


def _cv_dataset(seed, rank_structured, tied):
    if rank_structured:
        ds = rescaled_pattern_dataset(n=60, p=10, k=3, seed=seed % 2**31)
    else:
        ds = random_dataset(np.random.default_rng(seed), 60, 10, 3, scale=3.0)
    if tied:  # repeated values exercise the tie pass on prepared features
        ds = Dataset(np.round(ds.features, 1), ds.labels, ds.num_classes)
    return ds


def _reference_records(ds, config, kernels=DEFAULT_KERNELS):
    """A plain fit and prediction per method on every masked fold, nothing shared."""
    out = []
    for rep in range(config.replicates):
        _, fold_seed = evaluation._replicate_seeds(config.seed, rep)
        for f, test_idx in enumerate(kfold_split(ds.n, config.folds, fold_seed)):
            labels = ds.labels.copy()
            labels[test_idx] = 0
            masked = Dataset(ds.features, labels, ds.num_classes)
            for method in config.methods:
                if method == "reference":
                    z = embed_reference(masked, "linear")
                    trn = labels > 0
                    lda = fit_lda(z[trn], labels[trn], ds.num_classes)
                    predicted = predict(lda, z[test_idx])
                else:
                    use = ("linear",) if method == "fast-linear" else kernels
                    model = fit(masked, use)
                    predicted, _ = predict_new(model, ds.features[test_idx])
                error = float(np.mean(predicted != ds.labels[test_idx]))
                out.append((method, rep, f, error))
    return out


def _records(report):
    return [(r.method, r.replicate, r.fold, r.error) for r in report.records]


# (methods, fast-multi candidates): fast-linear alone, derived from
# fast-multi in either order or beside reference, and from a candidate
# list naming the inner product last.
_CV_CASES = [
    (("fast-linear",), DEFAULT_KERNELS),
    (("fast-linear", "fast-multi"), DEFAULT_KERNELS),
    (("fast-multi", "fast-linear"), DEFAULT_KERNELS),
    (("reference", "fast-linear", "fast-multi"), DEFAULT_KERNELS),
    (("fast-linear", "fast-multi"), ("spearman", "linear")),
]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank_structured=st.booleans(),
    tied=st.booleans(),
    folds=st.integers(2, 4),
    case=st.sampled_from(_CV_CASES),
)
# Every case runs at least once, whatever is drawn.
@example(seed=1, rank_structured=False, tied=False, folds=2, case=_CV_CASES[0])
@example(seed=2, rank_structured=True, tied=False, folds=3, case=_CV_CASES[1])
@example(seed=3, rank_structured=False, tied=True, folds=4, case=_CV_CASES[2])
@example(seed=4, rank_structured=True, tied=True, folds=2, case=_CV_CASES[3])
@example(seed=5, rank_structured=True, tied=False, folds=3, case=_CV_CASES[4])
def test_cross_validate_matches_plain_fits_at_any_thread_count(
    seed, rank_structured, tied, folds, case
):
    """Shared preparation, embedding reuse and a fast-linear read from
    fast-multi's fit change no fold record."""
    methods, kernels = case
    ds = _cv_dataset(seed, rank_structured, tied)
    base = dict(folds=folds, replicates=2, seed=seed, methods=methods)
    one = cross_validate(ds, EvalConfig(threads=1, **base), kernels)
    two = cross_validate(ds, EvalConfig(threads=2, **base), kernels)
    assert _records(one) == _records(two)
    assert _records(one) == _reference_records(ds, EvalConfig(**base), kernels)
    for report in (one, two):
        assert all(np.isfinite(r.seconds) and r.seconds > 0 for r in report.records)


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


def _leaf_paths(node, path=()):
    """Key/index paths of every scalar in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaf_paths(child, path + (key,))]


@pytest.fixture(scope="module")
def saved_artifact(tmp_path_factory):
    """A small dataset's CSV path and the text of a model saved from it."""
    tmp = tmp_path_factory.mktemp("artifact")
    data, model = tmp / "data.csv", tmp / "good.json"
    write_csv(data, random_dataset(np.random.default_rng(11), 24, 3, 2))
    save_model(model, fit(read_csv(data)))
    return data, model.read_text()


# Serialized as Infinity, NaN, -1, 0, "x", [], {}, null, true and a
# ragged nested list.
_MUTANTS = [
    float("inf"), float("nan"), -1, 0, "x", [], {}, None, True, [[1.0], [2.0, 3.0]]
]


@settings(max_examples=150, deadline=None)
@given(leaf=st.integers(0, 10**6), value=st.sampled_from(_MUTANTS))
@example(leaf=1, value=float("inf"))  # num_classes
@example(leaf=2, value=float("inf"))  # num_features
def test_mutated_artifact_never_crashes_predict(
    saved_artifact, tmp_path_factory, leaf, value
):
    """Any one leaf of a saved model replaced: predict exits 0, 2 or 3.

    It never raises; on exit 0 the prediction file holds no NaN. Leaves
    are numbered in document order (schema, num_classes, num_features,
    kernel, ...) and ``leaf`` is taken modulo their count.
    """
    data, text = saved_artifact
    doc = json.loads(text)
    paths = _leaf_paths(doc)
    *parents, last = paths[leaf % len(paths)]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    tmp = tmp_path_factory.mktemp("mutant")
    model, out = tmp / "model.json", tmp / "pred.csv"
    model.write_text(json.dumps(doc))
    code = main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        assert "nan" not in out.read_text().lower()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank_structured=st.booleans(),
    tied=st.booleans(),
    others=st.lists(st.sampled_from(("distance", "spearman")), unique=True),
    baseline_at=st.integers(0, 2),
    threshold=st.sampled_from([0.7, 1.0]),
)
def test_artifact_round_trip_is_exact(
    tmp_path_factory, seed, rank_structured, tied, others, baseline_at, threshold
):
    """save, load, save again: the same bytes, and the same predictions bitwise."""
    ds = _cv_dataset(seed, rank_structured, tied)
    candidates = list(others)
    candidates.insert(min(baseline_at, len(others)), "linear")
    model = fit(ds, candidates, threshold)
    tmp = tmp_path_factory.mktemp("round")
    save_model(tmp / "a.json", model)
    loaded = load_model(tmp / "a.json")
    save_model(tmp / "b.json", loaded)
    assert (tmp / "b.json").read_bytes() == (tmp / "a.json").read_bytes()
    x = np.random.default_rng(seed).normal(0.0, 3.0, size=(17, ds.p))
    for got, want in zip(predict_new(loaded, x), predict_new(model, x)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# One field of one line replaced by each of these, or the line's last field
# dropped, a "\r" appended to it, or an empty, blank-only or "\r" line put
# before it; the header is a line like any other.
_FIELD_MUTANTS = [
    "", "nan", "inf", "1e400", "1e200", "-1e200", "1_0", " ", "x", "9" * 30,
    "-1", "1.5", "1e3",
]
_CSV_MUTATIONS = (
    [("field", value) for value in _FIELD_MUTANTS]
    + [("drop", None), ("cr", None)]
    + [("insert", line) for line in ("", " \t", "\r")]
)


def _mutate_csv(text, mutation, line, field):
    kind, value = mutation
    lines = text.splitlines()
    if kind == "insert":
        lines.insert(line % (len(lines) + 1), value)
        return "\n".join(lines) + "\n"
    i = line % len(lines)
    fields = lines[i].split(",")
    if kind == "field":
        fields[field % len(fields)] = value
    elif kind == "drop":
        fields.pop()
    lines[i] = ",".join(fields) + ("\r" if kind == "cr" else "")
    return "\n".join(lines) + "\n"


def _run_cli(argv):
    """Exit code and stderr of in-process ``kec`` on ``argv``."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(
    mutation=st.sampled_from(_CSV_MUTATIONS),
    line=st.integers(0, 10**6),
    field=st.integers(0, 10**6),
)
def test_mutated_csv_never_crashes_train_or_predict(
    saved_artifact, tmp_path_factory, mutation, line, field
):
    """One line of a dataset changed: train and predict exit 0, 2 or 3.

    Neither raises or writes more than one line to stderr, and a
    prediction file never holds NaN.
    """
    data, text = saved_artifact
    tmp = tmp_path_factory.mktemp("csv-mutant")
    csv, model, out = tmp / "data.csv", tmp / "model.json", tmp / "pred.csv"
    csv.write_bytes(_mutate_csv(data.read_text(), mutation, line, field).encode())
    model.write_text(text)
    for argv in (
        ["train", "--data", str(csv), "--model-out", str(tmp / "trained.json"),
         "--threads", "1"],
        ["predict", "--model", str(model), "--data", str(csv), "--out", str(out)],
    ):
        code, err = _run_cli(argv)
        assert code in (0, 2, 3)
        assert err.count("\n") <= 1, err
    if code == 0:
        assert "nan" not in out.read_text().lower()


_TINY = random_dataset(np.random.default_rng(3), 30, 4, 2)


def _fit_bytes(model):
    return model.cross_entropies.tobytes() + predict_new(model, _TINY.features)[1].tobytes()


def _cv_records(**config):
    config = {"folds": 2, "replicates": 1, "methods": ("fast-linear",), **config}
    return _records(cross_validate(_TINY, EvalConfig(**config)))


def _sim_bytes(**size):
    ds = generate(SimSetting(**{"name": "uniform-hd", "n": 12, "p": 4, "num_classes": 2, **size}))
    return ds.features.tobytes() + ds.labels.tobytes()


def _bench(n_grid=(8, 16, 32, 64), runs=1):
    setting = SimSetting("normal-hd", n=1, p=3, num_classes=2)
    return bench_scaling(setting, list(n_grid), runs=runs, paths=("fast",))


# Entry point -> (parameter, its minimum, a valid value, the call with the
# parameter set to v and what it returns). bench_scaling returns times, so
# it has no valid value to compare.
_COUNT_PARAMETERS = {
    "fit threads": ("threads", 1, 2, lambda v: _fit_bytes(fit(_TINY, threads=v))),
    "EvalConfig folds": ("folds", 2, 3, lambda v: _cv_records(folds=v)),
    "EvalConfig replicates": ("replicates", 1, 2, lambda v: _cv_records(replicates=v)),
    "EvalConfig seed": ("seed", 0, 7, lambda v: _cv_records(seed=v)),
    "EvalConfig threads": ("threads", 1, 2, lambda v: _cv_records(threads=v)),
    "SimSetting n": ("n", 1, 9, lambda v: _sim_bytes(n=v)),
    "SimSetting p": ("p", 1, 3, lambda v: _sim_bytes(p=v)),
    "SimSetting num_classes": ("num_classes", 1, 3, lambda v: _sim_bytes(num_classes=v)),
    "SimSetting seed": ("seed", 0, 5, lambda v: _sim_bytes(seed=v)),
    "Dataset num_classes": (
        "num_classes", 1, 2,
        lambda v: _fit_bytes(fit(Dataset(_TINY.features, _TINY.labels, v))),
    ),
    "kfold_split n": (
        "n", 1, 10, lambda v: [f.tobytes() for f in kfold_split(v, 1, 0)]
    ),
    "kfold_split folds": (
        "folds", 1, 3, lambda v: [f.tobytes() for f in kfold_split(10, v, 0)]
    ),
    "kfold_split seed": (
        "seed", 0, 3, lambda v: [f.tobytes() for f in kfold_split(10, 2, v)]
    ),
    "fit_lda num_classes": (
        "num_classes", 1, 2,
        lambda v: fit_lda(_TINY.features, _TINY.labels, v).means.tobytes(),
    ),
    "bench_scaling runs": ("runs", 1, None, lambda v: _bench(runs=v)),
    "bench_scaling n_grid": ("n_grid", 1, None, lambda v: _bench(n_grid=(v, 16, 32, 64))),
    "resolve_threads": ("threads", 1, 3, resolve_threads),
}

_NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64]


def _not_counts(least, none):
    """Values a count parameter with minimum ``least`` must refuse."""
    return st.one_of(
        st.integers(least - 10**6, least - 1),
        st.integers(least - 3, least - 1).map(np.int64),
        st.booleans(),
        st.integers(-3, 9).map(float),
        st.floats().filter(lambda f: not f.is_integer()),
        st.floats(-3, 9, width=32).map(np.float32) | st.floats(-3, 9).map(np.float64),
        st.text(max_size=3),
        *([st.none()] if none else []),
    )


@settings(max_examples=120, deadline=None)
@given(
    entry=st.sampled_from(sorted(_COUNT_PARAMETERS)),
    data=st.data(),
    numpy_int=st.sampled_from(_NUMPY_INTEGERS),
)
def test_every_count_parameter_takes_one_rule(entry, data, numpy_int):
    """A count, seed or thread count is a Python or numpy integer, not a
    bool, of at least its minimum; anything else raises InvalidParams with
    one line naming the parameter, and a numpy integer gives the output of
    the same Python int bitwise.

    resolve_threads(None) means the default, so None is not drawn for it.
    """
    name, least, valid, call = _COUNT_PARAMETERS[entry]
    value = data.draw(_not_counts(least, none=entry != "resolve_threads"), label="value")
    with pytest.raises(InvalidParams) as info:
        call(value)
    message = str(info.value)
    assert "\n" not in message and message.startswith(name), message
    below = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    bound = "non-negative" if least == 0 else f"at least {least}"
    assert (f"must be {bound}" if below else "must be an integer") in message, message
    if valid is not None:
        assert call(numpy_int(valid)) == call(valid)
