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
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, validate
from .encoder import build_U, build_weights, embed
from .errors import (
    DimensionMismatch,
    InvalidParams,
    NoBaselineKernel,
    NonFiniteFeature,
    NotFitted,
    ShapeMismatch,
)
from .kernels import (
    BASELINE_KERNEL,
    DEFAULT_KERNELS,
    DISTANCE_INDUCED,
    INNER_PRODUCT,
    SPEARMAN_RANK,
    Kernel,
    _prepare,
    resolve_kernel,
)
from .lda import LdaModel, fit_lda, posterior
from .parallel import map_ordered

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

# Dispatch rank of each built-in branch, slowest first, so the longest
# branch starts at once instead of being the last to finish. Kernels not
# listed (custom callables on the generic Python loop) rank 0.
_BRANCH_COST_RANK = {SPEARMAN_RANK: 1, DISTANCE_INDUCED: 2, INNER_PRODUCT: 3}


@dataclass(frozen=True)
class KernelScore:
    """One candidate kernel's fitted branch."""

    kernel: Kernel
    cross_entropy: float
    model: LdaModel
    embedding: np.ndarray


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


def _score_kernel(kernel: Kernel, X, U, labels, trn, V, num_classes) -> KernelScore:
    Z = embed(X, U, kernel)
    model = fit_lda(Z[trn], labels[trn], num_classes)
    T = posterior(model, Z)
    return KernelScore(
        kernel=kernel,
        cross_entropy=cross_entropy(T, V),
        model=model,
        embedding=Z,
    )


def _candidates(kernels) -> tuple:
    """Resolved candidate kernels; a single name or callable is one candidate."""
    if isinstance(kernels, str) or callable(kernels):
        kernels = (kernels,)
    return tuple(resolve_kernel(k) for k in kernels)


def fit(
    dataset: Dataset,
    kernels=DEFAULT_KERNELS,
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    threads: int = 1,
    *,
    _prepared=None,
) -> EncoderModel:
    """Run the full multi-kernel pipeline and return the trained model.

    Class stats, weights, and class means are built once; the M kernel
    branches are independent (and may run on ``threads`` workers), each
    producing an embedding, an LDA fit on training rows, and a
    cross-entropy score. Branches are dispatched slowest first (custom
    kernels, spearman, distance, linear) and collected back in candidate
    order, so the result does not depend on the schedule. The candidate
    set must contain the inner product, which anchors the switching rule,
    and ``switch_threshold`` must be finite and greater than 0.

    ``_prepared`` is private to ``cross_validate``: a mapping from
    candidate Kernel to ``kernels._prepare(dataset.features, kernel)``,
    so the folds of one replicate share one preparation of their common
    features.
    """
    _check_switch_threshold(switch_threshold)
    candidates = _candidates(kernels)
    if not candidates:
        raise NoBaselineKernel("kernel list is empty")
    try:
        baseline = next(
            m for m, k in enumerate(candidates) if k.name == BASELINE_KERNEL
        )
    except StopIteration:
        raise NoBaselineKernel(
            "candidate kernels must include the inner product ('linear')"
        ) from None

    stats = validate(dataset)
    weights = build_weights(dataset.labels, stats)
    class_means = build_U(dataset.features, weights)
    one_hot = weights.one_hot()
    prepared = _prepared or {}
    dispatch = sorted(
        range(len(candidates)),
        key=lambda m: _BRANCH_COST_RANK.get(candidates[m], 0),
    )
    dispatched = map_ordered(
        lambda m: _score_kernel(
            candidates[m],
            prepared.get(candidates[m], dataset.features),
            class_means,
            dataset.labels,
            stats.trn,
            one_hot,
            dataset.num_classes,
        ),
        dispatch,
        threads=threads,
    )
    scores = [None] * len(candidates)
    for m, score in zip(dispatch, dispatched):
        scores[m] = score
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
    if not np.isfinite(X_new).all():
        raise NonFiniteFeature("features contain NaN or infinite values")
    Z = embed(X_new, model.prepared_means, model.kernel)
    post = posterior(model.lda, Z)
    labels = np.argmax(post, axis=1) + 1
    return labels, post
