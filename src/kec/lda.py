"""Linear discriminant analysis with pooled covariance and calibrated posteriors.

Fits on the K-dimensional embedding: per-class means, a single pooled
within-class covariance (denominator m - K), and priors from training
counts. A small ridge, 1e-12 * trace(cov)/d, is always added to the
diagonal before inversion; a matrix that is still not positive-definite
is a hard error, never a silent pseudo-inverse.

An ``LdaModel`` checks its parameters and derives its serving state once,
when it is constructed (by ``fit_lda`` or when an artifact is loaded):
the lower Cholesky factor L of the ridged covariance, the whitening
matrix L^-1 and the log priors. None of them is serialized. The factor
and its inverse come from numpy's LAPACK, the same library as the
products that precede them: calling scipy's separately linked BLAS right
after numpy's made the two thread pools stall each other (a fixed ~8 ms
per model on a 2-core machine). Scoring is
then one whitened product: the n x K x d differences between each row
and each class mean are multiplied by L^-T in a single matrix product
(per block of rows, to bound the temporaries), and the squared row norms
give the Mahalanobis terms. The differences are formed before whitening,
since whitening rows and means separately and subtracting would cancel
digits.

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
)

RIDGE_SCALE = 1e-12

# Rows scored per block are capped so the (rows, K, d) temporaries stay
# at this many elements; a block's rows score as they would alone.
_SCORE_BLOCK_ELEMS = 1 << 16

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
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "whiten", whiten)
        object.__setattr__(self, "log_priors", np.log(self.priors))

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
    k = int(num_classes)
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


def discriminant_scores(model: LdaModel, Z) -> np.ndarray:
    """Gaussian scores log prior_k - 0.5 * (z - mu_k)' Cov^-1 (z - mu_k).

    With Cov = L L', the quadratic form is ||L^-1 (z - mu_k)||^2, so all
    K classes are scored by one product of the row/mean differences with
    the whitening matrix.
    """
    _require_fitted(model)
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.dim:
        raise DimensionMismatch(
            f"expected (n, {model.dim}) embedding, got {Z.shape}"
        )
    n, k, d = Z.shape[0], model.num_classes, model.dim
    scores = np.empty((n, k))
    step = max(1, _SCORE_BLOCK_ELEMS // (k * d))
    for s in range(0, n, step):
        diff = Z[s : s + step, None, :] - model.means
        w = diff.reshape(-1, d) @ model.whiten.T
        np.multiply(w, w, out=w)
        sq = np.sum(w, axis=1).reshape(-1, k)
        scores[s : s + step] = model.log_priors - 0.5 * sq
    return scores


def posterior(model: LdaModel, Z) -> np.ndarray:
    """Row-stochastic posterior matrix via a stabilized softmax of the scores."""
    scores = discriminant_scores(model, Z)
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def predict(model: LdaModel, Z) -> np.ndarray:
    """Most probable class per row; ties go to the smaller class index."""
    return np.argmax(posterior(model, Z), axis=1) + 1
