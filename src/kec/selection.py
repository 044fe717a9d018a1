"""Multi-kernel pipeline: per-kernel embedding + LDA, cross-entropy scoring,
and kernel selection with the 30% switching rule.

Cross-entropy is computed on the training rows themselves (rows with an
unknown label are dropped before summing, so test rows contribute
nothing). The baseline inner-product kernel is only abandoned when a
competitor's cross-entropy is at most ``switch_threshold`` times the
baseline's; the default 0.7 implements the 30% rule, 1.0 recovers a pure
argmin over the non-baseline candidates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _label_stats, validate
from .encoder import build_U, build_weights, embed
from .errors import (
    DimensionMismatch,
    InvalidParams,
    NoBaselineKernel,
    NotFitted,
    NumericOverflow,
    ShapeMismatch,
    check_count,
)
from .kernels import (
    DEFAULT_KERNELS,
    INNER_PRODUCT,
    Kernel,
    _prepare,
    _with_inner,
    resolve_kernel,
)
from .lda import LdaModel, fit_lda, posterior
from .parallel import fan_out_width, map_ordered

# Probabilities are clipped here before the log so a confidently wrong
# posterior keeps the cross-entropy finite.
LOG_CLIP = 1e-12

DEFAULT_SWITCH_THRESHOLD = 0.7

# Below this total cross-entropy the training posteriors are numerically
# perfect (a single row at posterior 0.99 already contributes ~1e-2) and
# differences between candidates are floating-point noise, so the
# switching rule keeps the baseline. At full experimental scale such
# values underflow to exact ties; at desk scale they need this guard.
SATURATED_CE = 1e-2

@dataclass(frozen=True)
class KernelScore:
    """One candidate kernel's fitted branch.

    ``seconds`` is the time this branch cost its fit (see ``fit``); it is
    never serialized and takes no part in comparisons.
    """

    kernel: Kernel
    cross_entropy: float
    model: LdaModel
    embedding: np.ndarray
    seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class EncoderModel:
    """Trained artifact: class means, chosen kernel, LDA, and diagnostics."""

    class_means: np.ndarray  # (K, p) per-class training means
    kernel: Kernel  # the selected kernel
    lda: LdaModel  # discriminant fitted on the selected embedding
    cross_entropies: np.ndarray  # (M,) in candidate order
    kernel_ids: tuple  # candidate names in order
    scores: tuple = field(repr=False, default=())  # all M fitted branches
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD
    # class_means with the kernel's per-row state (centered ranks, row
    # norms), derived at construction for predict_new; never serialized.
    prepared_means: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "prepared_means", _prepare(self.class_means, self.kernel)
        )

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def num_features(self) -> int:
        return self.class_means.shape[1]


def cross_entropy(T, V) -> float:
    """-sum_ik V(i,k) log T(i,k), with T clipped below at 1e-12.

    The sum runs over the non-zero cells of V only. Zero rows of V
    (unknown labels) therefore never enter it, so adding or removing them
    cannot move a bit of the result through the summation order.
    """
    T = np.asarray(T, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if T.shape != V.shape:
        raise ShapeMismatch(f"posterior {T.shape} vs one-hot {V.shape}")
    cells = np.flatnonzero(V.ravel() != 0.0)
    v, t = V.ravel().take(cells), T.ravel().take(cells)
    return float(-np.sum(v * np.log(np.clip(t, LOG_CLIP, None)))) + 0.0


def _check_switch_threshold(threshold) -> None:
    """Reject a switching-rule threshold that is not finite and positive."""
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise InvalidParams(
            f"switch threshold must be finite and greater than 0, got {threshold}"
        )


def select_kernel(scores, baseline: int, threshold: float = DEFAULT_SWITCH_THRESHOLD) -> int:
    """Index of the kernel to use, given per-kernel scores.

    The best non-baseline candidate (ties broken by candidate order) wins
    only if its cross-entropy is strictly smaller than the baseline's and
    at most ``threshold`` times it. A baseline already at numerically
    perfect training separation is never abandoned: nothing can be
    meaningfully 30% smaller than zero.
    """
    if not 0 <= baseline < len(scores):
        raise NoBaselineKernel("baseline index out of range")
    entropies = [s.cross_entropy for s in scores]
    others = [m for m in range(len(scores)) if m != baseline]
    if not others or entropies[baseline] <= SATURATED_CE:
        return baseline
    best = min(others, key=lambda m: entropies[m])
    if (
        entropies[best] <= threshold * entropies[baseline]
        and entropies[best] < entropies[baseline]
    ):
        return best
    return baseline


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a``, if every entry is finite; else ``NumericOverflow`` naming ``what``.

    Inputs are checked finite before any of this is used, so a value that
    is not finite here has overflowed float64.
    """
    if not np.isfinite(a).all():
        raise NumericOverflow(
            f"{what} overflowed float64: the features are too large in magnitude"
        )
    return a


def _row_blocks(n: int, width: int) -> list:
    """Contiguous row slices covering 0..n-1 for a fan-out ``width`` wide.

    One block when the fan-out runs inline; otherwise two per thread, so
    the last item to finish is short and at two threads each item ranks a
    quarter of the rows. Never more blocks than rows; sizes differ by at
    most one.
    """
    count = max(1, min(1 if width == 1 else 2 * width, n))
    bounds = [n * b // count for b in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _score_kernel(
    kernel: Kernel, Z, labels, trn, V, num_classes, spent: float
) -> KernelScore:
    """One kernel's LDA fit, training posteriors and cross-entropy on its embedding Z.

    Only the training rows ``trn`` are fitted and scored: the cross-entropy
    reads no other row, and a row's posterior does not depend on its batch.
    The score's ``seconds`` is ``spent`` plus the time of this step.
    """
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        _finite(Z, f"the {kernel.name} embedding")
        Z_trn = Z[trn]
        model = fit_lda(Z_trn, labels[trn], num_classes)
        T = _finite(posterior(model, Z_trn), f"the {kernel.name} discriminant scores")
    return KernelScore(
        kernel=kernel,
        cross_entropy=cross_entropy(T, V[trn]),
        model=model,
        embedding=Z,
        seconds=spent + (time.perf_counter() - start),
    )


def _candidates(kernels) -> tuple:
    """Resolved candidate kernels; a single name or callable is one candidate.

    A name that repeats after resolution raises ``InvalidParams``.
    """
    if isinstance(kernels, str) or callable(kernels):
        kernels = (kernels,)
    candidates = tuple(resolve_kernel(k) for k in kernels)
    names = [k.name for k in candidates]
    if len(set(names)) != len(names):
        raise InvalidParams(f"kernels must not repeat, got {names}")
    return candidates


def fit(
    dataset: Dataset,
    kernels=DEFAULT_KERNELS,
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    threads: int = 1,
    *,
    _prepared=None,
) -> EncoderModel:
    """Run the full multi-kernel pipeline and return the trained model.

    Class stats, weights and class means are built once, and the class
    means are prepared once, as one operand holding every candidate's
    state (``kernels._prepare``). The embedding step then fans out over
    row blocks on ``threads`` workers. Each item converts and checks its
    block of rows once and embeds it for every candidate, into that
    kernel's preallocated (n, K) matrix; each kernel's cross step derives
    its state from the checked rows (ranks, row norms), so ranking
    buffers are bounded by the block. The inner product goes first, so
    that distance reuses the block's linear embedding as its x.u. The
    block count comes from the threads the fan-out really uses
    (``parallel.fan_out_width``): one block when it runs inline, as on a
    worker of an enclosing fan-out, otherwise two per thread, and never
    more than n. A second, per-kernel step fits the LDA on the training
    rows and scores the cross-entropy. Rows embed independently, so the
    result is bitwise the same for every thread count and schedule. The
    candidate set must contain the inner product, ``kernels.INNER_PRODUCT``,
    which anchors the switching rule; a custom kernel cannot take its
    name. Both ``switch_threshold`` (finite, > 0) and ``threads`` (integer
    >= 1) are checked.

    Each ``KernelScore.seconds`` is the time its branch cost, on a
    monotonic clock: the fit's shared set-up (label checks, weights, class
    means and their preparation), plus the busy time of that kernel's
    embedding of each row block, plus its LDA step. The inner product
    also pays for converting and checking each block, and for distance's
    x.u. It is a sum of work, not a span of wall time, so branches that
    ran side by side each count their own.

    A kernel whose embedding, LDA covariance or posteriors overflow
    float64 fails the whole fit with ``NumericOverflow``: the inner
    product, which every candidate set holds, grows with the square of
    the feature scale and so overflows first.

    A fit checks its labels; ``kernels._prepare`` checks feature rows
    finite (``NonFiniteFeature``). Class means that are not finite are
    built before any row is prepared, so the features are checked first.

    ``_prepared`` is private to ``cross_validate``: the replicate's
    features as one operand from ``kernels._prepare``, converted and
    checked once, with the states of the kernels it was prepared for, so
    the folds of one replicate share them. Each block cuts it with
    ``row_slice`` instead of preparing its rows.
    """
    _check_switch_threshold(switch_threshold)
    threads = check_count("threads", threads, 1)
    candidates = _candidates(kernels)
    if not candidates:
        raise NoBaselineKernel("kernel list is empty")
    if INNER_PRODUCT not in candidates:
        raise NoBaselineKernel(
            "candidate kernels must include the inner product ('linear')"
        )
    baseline = candidates.index(INNER_PRODUCT)

    start = time.perf_counter()
    stats = _label_stats(dataset)
    weights = build_weights(dataset.labels, stats)
    one_hot = weights.one_hot()
    with np.errstate(over="ignore", invalid="ignore"):
        class_means = build_U(dataset.features, weights)
        if not np.isfinite(class_means).all():
            validate(dataset)
            _finite(class_means, "the class means")
        U = _prepare(class_means, *candidates)
    embeddings = [np.empty((dataset.n, dataset.num_classes)) for _ in candidates]
    spent = [time.perf_counter() - start] * len(candidates)
    # The inner product goes first in a block, so distance can take its x.u.
    order = [baseline] + [m for m in range(len(candidates)) if m != baseline]

    def embed_block(rows):
        busy = [0.0] * len(candidates)
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            # Converted and checked once for all kernels; a kernel whose
            # state the rows lack derives it in its cross step.
            if _prepared is None:
                X = _prepare(dataset.features[rows])
            else:
                X = _prepared.row_slice(rows)
            for m in order:
                embeddings[m][rows] = embed(X, U, candidates[m])
                if m == baseline:  # later cross steps see the block's x.u
                    X = _with_inner(X, U, embeddings[m][rows])
                now = time.perf_counter()
                busy[m], start = now - start, now
        return busy

    blocks = _row_blocks(dataset.n, fan_out_width(threads))
    for busy in map_ordered(embed_block, blocks, threads=threads):
        spent = [a + b for a, b in zip(spent, busy)]
    scores = map_ordered(
        lambda m: _score_kernel(
            candidates[m],
            embeddings[m],
            dataset.labels,
            stats.trn,
            one_hot,
            dataset.num_classes,
            spent[m],
        ),
        range(len(candidates)),
        threads=threads,
    )
    chosen = select_kernel(scores, baseline, switch_threshold)
    return EncoderModel(
        class_means=class_means,
        kernel=candidates[chosen],
        lda=scores[chosen].model,
        cross_entropies=np.array([s.cross_entropy for s in scores]),
        kernel_ids=tuple(k.name for k in candidates),
        scores=tuple(scores),
        switch_threshold=switch_threshold,
    )


def predict_new(model: EncoderModel, X_new):
    """Labels and posteriors for new rows, using the stored means and LDA."""
    if not isinstance(model, EncoderModel) or model.lda is None:
        raise NotFitted("encoder model is not fitted")
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2:
        raise DimensionMismatch("X_new must be a 2-D matrix")
    if X_new.shape[1] != model.num_features:
        raise DimensionMismatch(
            f"model expects {model.num_features} columns, data has "
            f"{X_new.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        Z = embed(X_new, model.prepared_means, model.kernel)
        post = posterior(model.lda, Z)
    if not np.isfinite(post).all():
        # A row whose embedding is not finite scores NaN or -inf in every
        # class, so one check covers both steps; this names the first.
        name = model.kernel.name
        _finite(Z, f"the {name} embedding")
        _finite(post, f"the {name} discriminant scores")
    labels = np.argmax(post, axis=1) + 1
    return labels, post
