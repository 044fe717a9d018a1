"""Kernel functions, cross-kernel evaluation, and Gram matrices.

Three built-in kernels are provided:

- ``linear``: the plain inner product.
- ``distance``: the Euclidean distance-induced kernel, using the
  origin-centered distance-to-kernel transform
  k(x, u) = (||x|| + ||u|| - ||x - u||) / 2.
- ``spearman``: Pearson correlation of average-rank vectors (ties get
  average ranks; a constant rank vector yields 0 rather than NaN). Ranks
  come from one unstable argsort per row with each run of tied values
  given the mean of its positions, O(p log p) per row; the order of tied
  values inside a run cannot change their average, so no stable sort is
  needed.

The scalar functions and the matrix evaluator ``kernel_cross`` are built
from the same elementwise operations and trailing-axis reductions, so
``kernel_cross(X, U, k)[i, j]`` reproduces the scalar value bitwise. For
that reason the cross path deliberately avoids BLAS matrix products,
whose accumulation order differs from a plain row reduction; the cost is
still O(nKp). ``kernel_gram`` has no bitwise contract and uses BLAS for
the inner product.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateLength, DimensionMismatch, UnknownKernel

# Identifier of the distance-to-kernel transform in use, stored in model
# metadata so results are reproducible if a variant is added later.
DISTANCE_TRANSFORM = "origin-centered"

# Cap on the (rows, K, p) broadcast work buffer, in elements. Small enough
# to stay allocator-friendly, large enough that per-chunk overhead is noise.
_CHUNK_ELEMS = 1 << 20


# ---------------------------------------------------------------------------
# Scalar kernels
# ---------------------------------------------------------------------------

def _as_pair(x, u) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.ndim != 1 or u.ndim != 1:
        raise DimensionMismatch("kernel arguments must be 1-D vectors")
    if x.shape[0] != u.shape[0]:
        raise DimensionMismatch(
            f"vector lengths differ: {x.shape[0]} vs {u.shape[0]}"
        )
    return x, u


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the trailing axis via an explicit square-sum."""
    return np.sqrt(np.sum(v * v, axis=-1))


def inner_product(x, u) -> float:
    """Inner product sum_s x_s * u_s."""
    x, u = _as_pair(x, u)
    return float(np.sum(x * u, axis=-1))


def distance_induced(x, u) -> float:
    """Origin-centered distance-to-kernel transform of the Euclidean metric."""
    x, u = _as_pair(x, u)
    return float((_sq_norm(x) + _sq_norm(u) - _sq_norm(x - u)) / 2.0)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based average ranks along the trailing axis; NaN rows give NaN.

    Ranks are half-integers, exact in float64, so the result equals
    ``scipy.stats.rankdata(a, method="average", axis=-1)`` bitwise.
    """
    order = np.argsort(a, axis=-1)
    s = np.take_along_axis(a, order, axis=-1)
    p = a.shape[-1]
    sorted_ranks = np.broadcast_to(np.arange(1.0, p + 1.0), s.shape).copy()
    tied = s[..., 1:] == s[..., :-1]
    if tied.any():
        # Each run of equal sorted values takes the mean of its first and
        # last position. Runs never cross rows: every row opens a run.
        rows = sorted_ranks.reshape(-1, p)
        opens = np.ones(rows.shape, dtype=bool)
        np.logical_not(tied.reshape(-1, p - 1), out=opens[:, 1:])
        starts = np.flatnonzero(opens)
        lengths = np.diff(starts, append=opens.size)
        means = rows.ravel()[starts] + (lengths - 1) * 0.5
        rows[...] = np.repeat(means, lengths).reshape(rows.shape)
    ranks = np.empty(a.shape)
    np.put_along_axis(ranks, order, sorted_ranks, axis=-1)
    # argsort puts NaN last, so a row holds a NaN iff its last sorted value is one.
    ranks[np.isnan(s[..., -1])] = np.nan
    return ranks


def _centered_ranks(a: np.ndarray) -> np.ndarray:
    """Average ranks along the trailing axis, centered per vector."""
    r = _average_ranks(a)
    return r - np.mean(r, axis=-1, keepdims=True)


def spearman(x, u) -> float:
    """Spearman rank correlation; 0 when either rank vector is constant."""
    x, u = _as_pair(x, u)
    if x.shape[0] < 2:
        raise DegenerateLength("spearman needs vectors of length >= 2")
    cx = _centered_ranks(x)
    cu = _centered_ranks(u)
    ssx = np.sum(cx * cx, axis=-1)
    ssu = np.sum(cu * cu, axis=-1)
    den = np.sqrt(ssx * ssu)
    if den == 0.0:
        return 0.0
    return float(np.sum(cx * cu, axis=-1) / den)


# ---------------------------------------------------------------------------
# Pairwise (n x K) evaluators, same per-entry arithmetic as the scalars
# ---------------------------------------------------------------------------

def _row_step(n: int, num_reps: int, p: int) -> int:
    return max(1, min(n, _CHUNK_ELEMS // max(1, num_reps * p)))


_scratch = threading.local()


def _scratch_buffer(shape: tuple) -> np.ndarray:
    """Per-thread reusable work buffer.

    Repeated multi-megabyte allocations go through mmap and fault in on
    every call; keeping one buffer per thread makes the fast path's cost
    stable. Every element read is written first, so reuse cannot leak
    values between calls.
    """
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.shape != shape:
        buf = _scratch.buf = np.empty(shape)
    return buf


def _product_reduce(X: np.ndarray, U: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = sum_s X[i, s] * U[j, s], chunked over rows of X."""
    n, p = X.shape
    k = U.shape[0]
    step = _row_step(n, k, p)
    buf = _scratch_buffer((step, k, p))
    for s in range(0, n, step):
        c = min(step, n - s)
        np.multiply(X[s : s + c, None, :], U[None, :, :], out=buf[:c])
        np.sum(buf[:c], axis=-1, out=out[s : s + c])
    return out


# Per-row state of the representatives U that a cross step needs besides
# U itself. ``_prepare`` computes it once for a fitted model, so serving
# does not redo it per request; the values are the ones the cross step
# would compute itself, so prepared and raw U give bitwise-equal results.

def _distance_state(U: np.ndarray) -> tuple:
    return (_sq_norm(U),)


def _spearman_state(U: np.ndarray) -> tuple:
    cu = _centered_ranks(U)
    return cu, np.sum(cu * cu, axis=-1)


@dataclass(frozen=True)
class _Prepared:
    """Representative rows plus their precomputed state for one kernel.

    Accepted by ``kernel_cross`` in place of U; reports U's shape and
    converts to U as an array, so shape checks and hashing see U.
    """

    rows: np.ndarray  # (K, p) float64, C-contiguous
    state_fn: Callable
    state: tuple

    @property
    def shape(self) -> tuple:
        return self.rows.shape

    @property
    def ndim(self) -> int:
        return self.rows.ndim

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)


def _state(U, state_fn: Callable) -> tuple:
    return U.state if isinstance(U, _Prepared) else state_fn(U)


def _cross_inner(X: np.ndarray, U: np.ndarray) -> np.ndarray:
    return _product_reduce(X, U, np.empty((X.shape[0], U.shape[0])))


def _cross_distance(X: np.ndarray, U) -> np.ndarray:
    (nu,) = _state(U, _distance_state)
    if isinstance(U, _Prepared):
        U = U.rows
    n, p = X.shape
    k = U.shape[0]
    nx = _sq_norm(X)
    out = np.empty((n, k))
    step = _row_step(n, k, p)
    buf = _scratch_buffer((step, k, p))
    for s in range(0, n, step):
        c = min(step, n - s)
        np.subtract(X[s : s + c, None, :], U[None, :, :], out=buf[:c])
        np.multiply(buf[:c], buf[:c], out=buf[:c])
        np.sum(buf[:c], axis=-1, out=out[s : s + c])
    np.sqrt(out, out=out)
    return (nx[:, None] + nu[None, :] - out) / 2.0


def _cross_spearman(X: np.ndarray, U) -> np.ndarray:
    if X.shape[1] < 2:
        raise DegenerateLength("spearman needs vectors of length >= 2")
    cu, ssu = _state(U, _spearman_state)
    cx, ssx = _spearman_state(X)
    num = _product_reduce(cx, cu, np.empty((X.shape[0], cu.shape[0])))
    den = np.sqrt(ssx[:, None] * ssu[None, :])
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


# ---------------------------------------------------------------------------
# Kernel registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """A named kernel: scalar form plus a row-block pairwise evaluator."""

    name: str
    scalar: Callable[[np.ndarray, np.ndarray], float]
    pairwise: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, u) -> float:
        return self.scalar(x, u)


INNER_PRODUCT = Kernel("linear", inner_product, _cross_inner)
DISTANCE_INDUCED = Kernel("distance", distance_induced, _cross_distance)
SPEARMAN_RANK = Kernel("spearman", spearman, _cross_spearman)

BUILTIN_KERNELS = {
    k.name: k for k in (INNER_PRODUCT, DISTANCE_INDUCED, SPEARMAN_RANK)
}

# Candidate set used by the multi-kernel pipeline unless overridden.
DEFAULT_KERNELS = ("linear", "distance", "spearman")

# Name of the baseline kernel required by the switching rule.
BASELINE_KERNEL = "linear"

_STATE_FNS = {DISTANCE_INDUCED: _distance_state, SPEARMAN_RANK: _spearman_state}


def _loop_pairwise(scalar: Callable) -> Callable:
    def pairwise(X: np.ndarray, U: np.ndarray) -> np.ndarray:
        out = np.empty((X.shape[0], U.shape[0]))
        for i in range(X.shape[0]):
            xi = X[i]
            for j in range(U.shape[0]):
                out[i, j] = scalar(xi, U[j])
        return out

    return pairwise


def resolve_kernel(kind) -> Kernel:
    """Turn a kernel name, Kernel, or scalar callable into a Kernel.

    A bare callable of signature (p-vector, p-vector) -> real is wrapped
    with a generic (slow) pairwise loop.
    """
    if isinstance(kind, Kernel):
        return kind
    if isinstance(kind, str):
        try:
            return BUILTIN_KERNELS[kind]
        except KeyError:
            raise UnknownKernel(
                f"unknown kernel {kind!r}; expected one of "
                f"{sorted(BUILTIN_KERNELS)} or a Kernel/callable"
            ) from None
    if callable(kind):
        name = getattr(kind, "__name__", "custom")
        return Kernel(name, kind, _loop_pairwise(kind))
    raise UnknownKernel(f"cannot interpret {kind!r} as a kernel")


# ---------------------------------------------------------------------------
# Matrix evaluation
# ---------------------------------------------------------------------------

def _as_matrix_pair(X, U) -> tuple:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if not isinstance(U, _Prepared):
        U = np.ascontiguousarray(U, dtype=np.float64)
    if X.ndim != 2 or U.ndim != 2:
        raise DimensionMismatch("kernel matrices must be 2-D")
    if X.shape[1] != U.shape[1]:
        raise DimensionMismatch(
            f"column counts differ: {X.shape[1]} vs {U.shape[1]}"
        )
    return X, U


def _prepare(U, kernel):
    """U with the per-row state ``kernel``'s cross step reuses, for serving.

    The result stands in for U in ``kernel_cross`` and gives bitwise the
    same embedding. Kernels with no such state (linear, custom) get the
    plain float64 matrix back.
    """
    U = np.ascontiguousarray(U, dtype=np.float64)
    state_fn = _STATE_FNS.get(resolve_kernel(kernel))
    if state_fn is None:
        return U
    return _Prepared(U, state_fn, state_fn(U))


def kernel_cross(X, U, kernel) -> np.ndarray:
    """Evaluate kernel(X(i,:), U(j,:)) for all i, j; an (n, K) matrix.

    Entries agree bitwise with the scalar kernel for all built-ins. U may
    also be a prepared operand from ``_prepare`` for the same kernel.
    """
    X, U = _as_matrix_pair(X, U)
    k = resolve_kernel(kernel)
    if isinstance(U, _Prepared) and U.state_fn is not _STATE_FNS.get(k):
        U = U.rows
    return k.pairwise(X, U)


def kernel_gram(X, kernel) -> np.ndarray:
    """Full (n, n) kernel matrix of X against itself.

    The inner product uses a BLAS product (the result is still exactly
    symmetric); other kernels reuse the pairwise evaluator.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch("kernel_gram expects a 2-D matrix")
    k = resolve_kernel(kernel)
    if k.name == BASELINE_KERNEL and k is INNER_PRODUCT:
        return X @ X.T
    return k.pairwise(X, X)
