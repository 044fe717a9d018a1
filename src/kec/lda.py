"""Linear discriminant analysis with pooled covariance and calibrated posteriors.

Fits on the K-dimensional embedding: per-class means, a single pooled
within-class covariance (denominator m - K), and priors from training
counts. A small ridge, 1e-12 * trace(cov)/d, is always added to the
diagonal before inversion; a matrix that is still not positive-definite
is a hard error, never a silent pseudo-inverse.

An ``LdaModel`` checks its parameters and derives its serving state once,
when it is constructed (by ``fit_lda`` or when an artifact is loaded):
the lower Cholesky factor L of the ridged covariance, the whitening
matrix W = L^-1, the log priors, the centre c (the mean of the class
means), the whitened centred means A = (means - c) W' and the class
offsets log prior_k - ||A_k||^2 / 2. None of them is serialized. The
factor and its inverse come from numpy's LAPACK, the same library as the
products that precede them: calling scipy's separately linked BLAS right
after numpy's made the two thread pools stall each other (a fixed ~8 ms
per model on a 2-core machine).

Scoring whitens each row once, w = (z - c) W', and expands the
Mahalanobis term as ||w||^2 - 2 w.A_k + ||A_k||^2, so a score costs two
small products instead of a (rows, K, d) difference tensor. Centring on c
is what keeps the expansion accurate: the terms that cancel are of the
size of ||w|| ||A_k||, and A_k is only the spread of the class means, so
the cancellation is bounded by that spread, not by how far the means sit
from the origin (on `normal-transformed` data the linear class means
reach about 8e6 but lie within 2.5e4 of c). Both products are numpy's own
sum-of-products loop (``kernels._inner``), which sums each entry in an
order set by d alone, and the softmax adds the classes one after another
(see ``posterior``), so a row's scores and posterior never depend on the
other rows of its batch. ||w||^2 is the same for every class and cancels
in the softmax: ``posterior`` leaves it out, ``discriminant_scores``
keeps it.

The ridge multiplier must stay far below the smallest informative
eigenvalue relative to the trace: embeddings of randomly mixed features
carry a common-variance direction many orders of magnitude above the
discriminative ones, and a larger multiplier erases them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import class_counts
from .errors import (
    ClassAbsent,
    DimensionMismatch,
    InvalidParams,
    NotFitted,
    NumericOverflow,
    SingularCovariance,
    check_count,
)
from .kernels import _inner

RIDGE_SCALE = 1e-12

# Largest accepted |sum(priors) - 1|; training proportions miss 1 by a
# few ulps at most.
PRIOR_SUM_TOL = 1e-9


@dataclass(frozen=True)
class LdaModel:
    """Fitted discriminant parameters on a d-dimensional embedding.

    Construction validates the parameters and derives the serving state;
    a covariance that is not positive-definite after the ridge raises
    ``SingularCovariance``.
    """

    means: np.ndarray  # (K, d) class means
    pooled_cov: np.ndarray  # (d, d) pooled covariance, ridge excluded
    priors: np.ndarray  # (K,) training proportions
    ridge: float  # value added to the covariance diagonal
    # Derived at construction, never serialized.
    chol: np.ndarray = field(init=False, repr=False, compare=False)
    whiten: np.ndarray = field(init=False, repr=False, compare=False)
    log_priors: np.ndarray = field(init=False, repr=False, compare=False)
    center: np.ndarray = field(init=False, repr=False, compare=False)  # (d,)
    anchors: np.ndarray = field(init=False, repr=False, compare=False)  # (K, d)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)  # (K,)

    def __post_init__(self):
        d = _check_params(self.means, self.pooled_cov, self.priors, self.ridge)
        cov = self.pooled_cov + self.ridge * np.eye(d)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SingularCovariance(
                "pooled covariance is not positive-definite after ridge "
                f"{self.ridge:.3e}"
            ) from None
        whiten = _lower_inverse(chol)
        log_priors = np.log(self.priors)
        center = self.means.mean(axis=0)
        anchors = _inner(self.means - center, whiten)
        offsets = log_priors - 0.5 * np.einsum(
            "kd,kd->k", anchors, anchors, optimize=False
        )
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "whiten", whiten)
        object.__setattr__(self, "log_priors", log_priors)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "offsets", offsets)

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, row by row by forward substitution.

    Row i of W = L^-1 solves L[i, :i+1] @ W[:i+1] = e_i; W stays exactly
    lower-triangular. d is the embedding dimension K, so the loop is short.
    """
    d = chol.shape[0]
    inv = np.zeros((d, d))
    for i in range(d):
        inv[i, :i] = -(chol[i, :i] @ inv[:i, :i]) / chol[i, i]
        inv[i, i] = 1.0 / chol[i, i]
    return inv


def _check_params(means, pooled_cov, priors, ridge) -> int:
    """Check shapes and values of the stored parameters; returns d."""
    if not all(isinstance(a, np.ndarray) for a in (means, pooled_cov, priors)):
        raise InvalidParams("LDA parameters must be numpy arrays")
    if means.ndim != 2 or 0 in means.shape:
        raise DimensionMismatch(f"means must be a (K, d) matrix, got {means.shape}")
    k, d = means.shape
    if pooled_cov.shape != (d, d):
        raise DimensionMismatch(
            f"pooled covariance is {pooled_cov.shape}, expected {(d, d)}"
        )
    if priors.shape != (k,):
        raise DimensionMismatch(f"priors are {priors.shape}, expected {(k,)}")
    if not all(np.isfinite(a).all() for a in (means, pooled_cov, priors, ridge)):
        raise InvalidParams("LDA parameters contain NaN or infinite values")
    if ridge < 0.0:
        raise InvalidParams(f"ridge must be non-negative, got {ridge}")
    if (priors <= 0.0).any() or abs(float(priors.sum()) - 1.0) > PRIOR_SUM_TOL:
        raise InvalidParams("priors must be positive and sum to 1")
    return d


def _require_fitted(model) -> None:
    if not isinstance(model, LdaModel):
        raise NotFitted("LDA model is not fitted")


def fit_lda(Z, y, num_classes: int) -> LdaModel:
    """Fit class means, pooled covariance, and priors on training rows.

    Parameters
    ----------
    Z : (m, d) array
        Embedding rows of the training samples, all finite. A pooled
        covariance that overflows float64 raises ``NumericOverflow``.
    y : (m,) array
        Labels in 1..num_classes; every class must be present.
    num_classes : int
        K, fixed externally so fold splits cannot change the model shape.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if Z.ndim != 2 or y.ndim != 1 or Z.shape[0] != y.shape[0]:
        raise DimensionMismatch("Z must be (m, d) with one label per row")
    m, d = Z.shape
    k = check_count("num_classes", num_classes, 1)
    if m < k + 1:
        raise InvalidParams(
            f"need at least {k + 1} training rows to pool covariance, got {m}"
        )
    counts = class_counts(y, k)
    absent = np.flatnonzero(counts == 0)
    if absent.size:
        raise ClassAbsent(f"class {int(absent[0]) + 1} has no training rows")

    means = np.empty((k, d))
    for c in range(k):
        means[c] = Z[y == c + 1].mean(axis=0)
    centered = Z - means[y - 1]
    pooled = (centered.T @ centered) / (m - k)
    ridge = RIDGE_SCALE * float(np.trace(pooled)) / d
    if not (np.isfinite(pooled).all() and np.isfinite(ridge)):
        raise NumericOverflow(
            "the pooled covariance of the embedding overflowed float64"
        )
    priors = counts / float(m)
    return LdaModel(means=means, pooled_cov=pooled, priors=priors, ridge=ridge)


def _whitened(model: LdaModel, Z) -> np.ndarray:
    """Rows of Z checked against the model, centred on c and whitened: (Z - c) W'."""
    _require_fitted(model)
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.dim:
        raise DimensionMismatch(
            f"expected (n, {model.dim}) embedding, got {Z.shape}"
        )
    return _inner(Z - model.center, model.whiten)


def _class_terms(model: LdaModel, w: np.ndarray) -> np.ndarray:
    """(K, n) matrix of log prior_k - ||A_k||^2 / 2 + w.A_k.

    These are the scores without their common term -||w||^2 / 2.
    """
    terms = _inner(model.anchors, w)
    terms += model.offsets[:, None]
    return terms


def discriminant_scores(model: LdaModel, Z) -> np.ndarray:
    """Gaussian scores log prior_k - 0.5 * (z - mu_k)' Cov^-1 (z - mu_k).

    With Cov = L L' and w = L^-1 (z - c), the quadratic form is
    ||w - A_k||^2 = ||w||^2 - 2 w.A_k + ||A_k||^2 (see the module
    docstring); each row is scored on its own, bitwise.
    """
    w = _whitened(model, Z)
    scores = _class_terms(model, w)
    scores -= 0.5 * np.einsum("ij,ij->i", w, w, optimize=False)
    return scores.T


def posterior(model: LdaModel, Z) -> np.ndarray:
    """Row-stochastic posterior matrix via a stabilized softmax of the scores.

    The scores leave out -||w||^2 / 2, which is the same in every class of
    a row and so cancels in the softmax. They are formed as a (K, n)
    matrix and returned transposed: the row max and sum then reduce over
    its leading axis, so numpy adds the classes one after another, each
    row on its own. A lone row is scored as two equal rows, since a (K, 1)
    matrix reduces as one contiguous vector, which numpy sums pairwise
    once K >= 8.
    """
    w = _whitened(model, Z)
    lone = w.shape[0] == 1
    if lone:
        w = np.concatenate((w, w))
    post = _class_terms(model, w)
    post -= post.max(axis=0)
    np.exp(post, out=post)
    post /= post.sum(axis=0)
    return post.T[:1] if lone else post.T


def predict(model: LdaModel, Z) -> np.ndarray:
    """Most probable class per row; ties go to the smaller class index."""
    return np.argmax(posterior(model, Z), axis=1) + 1
