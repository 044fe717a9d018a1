"""Kernel functions, cross-kernel evaluation, and Gram matrices.

Three built-in kernels are provided:

- ``linear``: the plain inner product.
- ``distance``: the Euclidean distance-induced kernel, using the
  origin-centered distance-to-kernel transform
  k(x, u) = (||x|| + ||u|| - ||x - u||) / 2.
- ``spearman``: Pearson correlation of average-rank vectors (ties get
  average ranks; a constant rank vector yields 0 rather than NaN). Rows
  are ordered by numpy's value sort, O(p log p), of packed keys: each
  value's float64 bits with its column written into the low
  bit_length(p - 1) mantissa bits. A row keeps that order when it is
  proven ascending: by the sorted keys alone when their high bits
  strictly increase, otherwise by its values read back in that order
  (non-decreasing); any other row (values too close for the packed key)
  is ordered by an unstable argsort. Every ascending order gives the
  same average ranks, so the path a row took never shows in its ranks,
  and only rows that have ties pay for averaging their runs.

Each scalar kernel is ``kernel_cross`` on a one-row X and a one-row U, so
``kernel_cross(X, U, k)[i, j]`` equals the scalar value bitwise by
construction. The cross step of linear and distance is numpy's own C
sum-of-products loop, ``np.einsum`` with ``optimize=False``, over the
products of x and u. That loop sums each entry over the trailing axis in
an order that depends on p alone, so a row's value never depends on
which other rows share its call. A BLAS matrix product's accumulation
order depends on the shape of the call, so it is used only where every
order gives the same sum: the spearman numerator, the products of
centered ranks, is a BLAS product while p <= 2^17. Its terms are
multiples of 1/4 and its partial sums are at most p(p - 1)^2/4 < 2^51 in
magnitude, so every one is exact and each entry is its exact sum,
whatever rows share the call; longer rows take the einsum loop. It is
computed in row pieces small enough that the BLAS runs each on the
calling thread. The cost is O(nKp).

Distance takes the squared distance s = ||x - u||^2 from the expansion
S - 2 x.u, with S = ||x||^2 + ||u||^2 from the squared row norms that
``_prepare`` computes beside the norms, and x.u from the linear cross (an
operand may carry the linear cross it already had, ``_with_inner``: the
same einsum on the same rows). Each of its three p-term sums is within p
eps times the sum of its terms' magnitudes, in any order (eps = 2^-53),
and those magnitudes sum to at most S/2 for x.u; so, to first order in
eps, the computed value s' obeys

    |s' - s| <= (2p + 1) eps S + eps s.

Where s is small against S the first term is cancellation, so an entry
keeps s' only when s' > T S, with T = (2p + 1) 2^-27: then its relative
error is at most 2^-26 + eps (half of float64's significand survives)
and the distance's at most about 2^-27. Any other entry (s' <= T S, or
s' not finite: S past float64's range) is computed from x - u, bitwise
as the sums of a (rows, K, p) difference buffer. The choice reads only x
and u, so an entry never depends on the other rows or class means of its
call; a kept entry has finite norms and a finite positive s', so the
expansion never yields NaN or +-inf.

Every cross step takes two operands from ``_prepare``, the one place
where an operand is converted to an aligned, C-contiguous float64 matrix
and checked to be 2-D and finite (no kernel has a value for NaN or
+-inf). A prepared operand holds those rows and a per-row state for each
kernel it was prepared for: row norms and their squares for distance,
centered ranks and their sums of squares for spearman, nothing for
linear and custom kernels. Each ``Kernel`` owns its state's function,
and the operand keeps each state under that function. A state is built
in row pieces of at most ``_CHUNK_ELEMS`` (2^16) elements, one row at
least: ranking's packed keys, order, proof and tie pass, and the squares
behind the row norms, hold one piece at a time and write into the
state's full arrays. So preparing an n x p operand for spearman peaks at
its ranks (n p 8 bytes) plus a fixed budget of pieces, and for distance
well below the operand (its finiteness scan's n p booleans); a
``threads=1`` fit of 10000 x 400 peaks at about 1.1 n p 8 bytes. An
operand used many times (a model's class means, a cross-validation
replicate's features) is prepared once for all its kernels; preparing it
again adds only the states it lacks. State is per row, so ``_Prepared.row_slice``
cuts an operand and its states to a block of rows, bitwise equal to
preparing that block. A built-in's name means the built-in: a custom
kernel cannot take one (``resolve_kernel``).
``kernel_gram`` has no bitwise contract and uses BLAS for the inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateLength, DimensionMismatch, InvalidParams
from .errors import NonFiniteFeature, UnknownKernel

# Identifier of the distance-to-kernel transform, written into every model
# artifact; ``load_model`` rejects an artifact that names another one.
DISTANCE_TRANSFORM = "origin-centered"

# The row-piece budget, in elements, of every operand-sized temporary:
# ranking's keys and order, the squares behind row norms and the
# difference buffer of distance entries computed from x - u. 512 KiB per
# float64 or int64 array stays in cache between its write and its read.
_CHUNK_ELEMS = 1 << 16


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


def _through_cross(x, u, kernel) -> float:
    x, u = _as_pair(x, u)
    return float(kernel_cross(x[None], u[None], kernel)[0, 0])


def inner_product(x, u) -> float:
    """Inner product sum_s x_s * u_s."""
    return _through_cross(x, u, INNER_PRODUCT)


def distance_induced(x, u) -> float:
    """Origin-centered distance-to-kernel transform of the Euclidean metric."""
    return _through_cross(x, u, DISTANCE_INDUCED)


def spearman(x, u) -> float:
    """Spearman rank correlation; 0 when either rank vector is constant."""
    return _through_cross(x, u, SPEARMAN_RANK)


# ---------------------------------------------------------------------------
# Pairwise (n x K) evaluators, same per-entry arithmetic as the scalars
# ---------------------------------------------------------------------------

# Per-row state of an operand that a cross step needs besides its rows;
# ``_prepare`` computes it once per operand with its kernel's ``state``.

def _no_state(A: np.ndarray) -> tuple:
    return ()


def _piece_rows(p: int) -> int:
    """Rows per piece of p columns: ``_CHUNK_ELEMS`` elements at most, one row at least."""
    return max(1, _CHUNK_ELEMS // max(1, p))


def _distance_state(A: np.ndarray) -> tuple:
    """Row norms of a matrix, and their squares (explicit square-sums).

    Each piece of rows is squared and summed on its own, so the square
    never holds more than one piece; a row's ``np.sum`` is the same
    whatever rows share its call.
    """
    sq = np.empty(A.shape[0])
    step = _piece_rows(A.shape[1])
    for lo in range(0, A.shape[0], step):
        piece = A[lo : lo + step]
        np.sum(piece * piece, axis=-1, out=sq[lo : lo + step])
    return np.sqrt(sq), sq


# Centered average ranks are multiples of 1/2, so their squares are
# multiples of 1/4. Up to this row length every partial sum of those
# squares (at most p^3/12 < 2^51) is exact in float64, in any order.
_EXACT_SS_LENGTH = 1 << 18

# Likewise every product of two centered ranks is a multiple of 1/4 of
# magnitude at most (p - 1)^2/4. Up to this row length every partial sum
# of a spearman numerator (at most p(p - 1)^2/4 < 2^51) is exact in any
# order, with or without fused multiply-adds, so a BLAS matrix product
# gives it bitwise as numpy's einsum loop does, whatever rows share it.
_EXACT_NUM_LENGTH = 1 << 17

# Multiply-adds per BLAS call of the spearman numerator. A call this
# small stays in cache and runs on its caller's thread (OpenBLAS threads
# a matrix product only from 2^18), so it adds no BLAS threads to a fit's
# fan-out: with OpenBLAS unpinned, whole-block products made a two-thread
# 10000 x 400 fit about 50% slower than the einsum loop (2-vCPU x86 VM).
_BLAS_CALL_PRODUCTS = 1 << 17


def _rank_state(a) -> tuple:
    """Centered average ranks along the trailing axis and their sums of squares.

    Ranks plus (p+1)/2 equal ``scipy.stats.rankdata(a, method="average",
    axis=-1)`` bitwise: average ranks are half-integers and a row of them
    sums to p(p+1)/2, so its mean is exactly (p+1)/2 and a tie-free row's
    centered ranks are a permutation of ``arange(p) - (p-1)/2``. The sums
    equal ``np.sum(c * c, axis=-1)`` bitwise; they are exact, so every
    tie-free row shares one constant and only rows with ties are summed.
    Values must be finite. Each row's ascending order comes from
    ``_ascending_order``; average ranks do not depend on which ascending
    order is used. Rows are ranked in pieces of at most ``_CHUNK_ELEMS``
    elements (``_rank_piece``); a row's ranks and sum never depend on the
    other rows of its piece.
    """
    a = np.asarray(a, dtype=np.float64)
    p = a.shape[-1]
    flat = a.reshape(math.prod(a.shape[:-1]), p)
    sorted_c = np.arange(p) - (p - 1) / 2.0
    c = np.empty(flat.shape)
    ss = np.full(flat.shape[0], (p**3 - p) / 12)  # sum of sorted_c ** 2
    step = _piece_rows(p)
    for lo in range(0, flat.shape[0], step):
        rows = slice(lo, lo + step)
        _rank_piece(flat[rows], sorted_c, c[rows], ss[rows])
    return c.reshape(a.shape), ss.reshape(a.shape[:-1])


def _rank_piece(flat, sorted_c, c, ss) -> None:
    """``_rank_state`` of the rows ``flat``, written into their rows ``c`` and ``ss``.

    One scatter through the flat indices of each row's ascending order
    writes the ranks; ``ss`` holds the tie-free sum and is summed anew only
    for rows with ties (or every row, past ``_EXACT_SS_LENGTH``).
    """
    order, tie_rows, tie_sorted = _ascending_order(flat)
    c.reshape(-1)[order] = sorted_c
    if tie_rows.size:
        c.reshape(-1)[order[tie_rows]] = _tied_sorted_ranks(tie_sorted, sorted_c)
        ss[tie_rows] = np.sum(c[tie_rows] ** 2, axis=-1)
    if flat.shape[1] > _EXACT_SS_LENGTH:
        np.sum(c * c, axis=-1, out=ss)


def _ascending_order(flat) -> tuple:
    """Flat indices of each row's values in ascending order; the tied rows.

    Also returns the rows whose sorted values are not strictly ascending,
    exactly the rows that hold a tie, and their sorted values. Every value
    must be finite.

    With b = bit_length(p - 1), each value's float64 bits have their low b
    mantissa bits replaced by its column, and the rows of these keys are
    sorted by value; a finite value keeps a finite key, so they hold each
    column once. Clearing a finite value's low mantissa bits never reverses
    the order of two values, so a row whose sorted keys, with those bits
    cleared, read strictly increasing holds strictly increasing values: it
    keeps the key order and has no tie. Only the other rows are gathered. Of
    these, a row keeps the key order when its gathered values are
    non-decreasing; any other row, one whose values within 2^b ulps of each
    other came out of order, is ordered by an unstable argsort.
    """
    m, p = flat.shape
    b = max(p - 1, 0).bit_length()
    mask = (1 << b) - 1
    keys = flat.view(np.int64) & np.int64(~mask)
    keys |= np.arange(p)
    keys.view(np.float64).sort(axis=-1)
    high = (keys & np.int64(~mask)).view(np.float64)
    rows = np.flatnonzero((high[:, 1:] <= high[:, :-1]).any(axis=-1))
    del high
    order = np.bitwise_and(keys, mask, out=keys)
    order += np.arange(m)[:, None] * p
    if not rows.size:
        return order, rows, np.empty((0, p))
    s = np.take(flat, order[rows])
    strict = (s[:, 1:] > s[:, :-1]).all(axis=-1)
    unstrict = np.nonzero(~strict)[0]
    if unstrict.size:
        t = s[unstrict]
        redo = unstrict[~(t[:, 1:] >= t[:, :-1]).all(axis=-1)]
        if redo.size:
            o = np.argsort(flat[rows[redo]], axis=-1)
            o += rows[redo, None] * p
            order[rows[redo]] = o
            s[redo] = redone = np.take(flat, o)
            strict[redo] = (redone[:, 1:] > redone[:, :-1]).all(axis=-1)
    return order, rows[~strict], s[~strict]


def _tied_sorted_ranks(s, sorted_c) -> np.ndarray:
    """Centered ranks, in sorted order, of rows whose sorted values ``s`` tie.

    Each run of equal sorted values takes the mean of its first and last
    position. Runs never cross rows: every row opens a run.
    """
    m, p = s.shape
    opens = np.ones((m, p), dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=opens[:, 1:])
    starts = np.flatnonzero(opens)
    lengths = np.diff(starts, append=opens.size)
    means = sorted_c[starts % p] + (lengths - 1) * 0.5
    return np.repeat(means, lengths).reshape(m, p)


@dataclass(frozen=True)
class _Prepared:
    """An operand's checked rows plus their per-row state for each kernel.

    Reports the rows' shape and converts to them as an array, so shape
    checks and hashing see the plain matrix. ``inner`` may hold the linear
    cross of these rows with another operand's rows, as (those rows, the
    (n, K) matrix); a distance cross against that operand reads it as its
    x.u (``_with_inner``). Adding a state keeps it; ``row_slice`` drops it.
    """

    rows: np.ndarray  # (n, p) float64, C-contiguous and aligned
    states: dict  # a kernel's ``state`` function -> that state of these rows
    inner: tuple = ()

    @property
    def shape(self) -> tuple:
        return self.rows.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)

    def row_slice(self, rows: slice) -> "_Prepared":
        """This operand cut to ``rows``, a slice: its rows and every state array.

        State is per row, so the cut equals preparing those rows, bitwise.
        """
        return _Prepared(
            self.rows[rows],
            {f: tuple(a[rows] for a in s) for f, s in self.states.items()},
        )


def _inner(X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """out[i, j] = sum_s X[i, s] * U[j, s], in an order set by p alone."""
    if X.shape[0] == 1 == U.shape[0]:
        # numpy runs a one-entry product as a 1-D reduction, split into
        # blocks of its 8192-element buffer; a stride-0 second row keeps the
        # sum whole, as in every larger call.
        X = np.broadcast_to(X, (2, X.shape[1]))
        return np.einsum("ij,kj->ik", X, U, optimize=False)[:1]
    return np.einsum("ij,kj->ik", X, U, optimize=False)


def _cross_inner(X: _Prepared, U: _Prepared) -> np.ndarray:
    return _inner(X.rows, U.rows)


def _with_inner(X: _Prepared, U: _Prepared, inner: np.ndarray) -> _Prepared:
    """X carrying ``inner``, its rows' linear cross with U's (``_cross_inner``).

    A distance cross of the result with U (the same rows object) takes
    ``inner`` as its x.u, which is bitwise what it would compute; against
    any other operand it computes x.u itself.
    """
    return _Prepared(X.rows, X.states, (U.rows, inner))


def _direct_sq_distances(X, U, direct, out) -> None:
    """out[i, j] = sum_s (X[i, s] - U[j, s])^2 where ``direct[i, j]``, from x - u.

    In each block of rows that holds such an entry every entry is
    computed, one class mean at a time through a (rows, p) difference
    buffer of at most ``_CHUNK_ELEMS`` elements, and the ``direct`` ones
    are written. Each is the same einsum sum over its p products as in a
    (rows, K, p) buffer with K > 1, so bitwise equal to it, whatever the
    rows of the call.
    """
    if not direct.any():
        return
    n, p = X.shape
    step = min(n, _piece_rows(p))
    d, sums = np.empty((step, p)), np.empty((max(step, 2), U.shape[0]))
    for lo in range(0, n, step):
        c = min(step, n - lo)
        if direct[lo : lo + c].any():
            for j, u in enumerate(U):
                np.subtract(X[lo : lo + c], u, out=d[:c])
                # numpy splits a one-row sum into blocks of its 8192-element
                # buffer; a stride-0 second row keeps it whole, as for c > 1.
                v = d[:c] if c > 1 else np.broadcast_to(d[:1], (2, p))
                np.einsum("ip,ip->i", v, v, out=sums[: len(v), j], optimize=False)
            np.copyto(out[lo : lo + c], sums[:c], where=direct[lo : lo + c])


def _sq_distances(X: _Prepared, U: _Prepared) -> np.ndarray:
    """Squared Euclidean distances of X's rows to U's rows; an (n, K) matrix.

    Through the expansion ||x||^2 + ||u||^2 - 2 x.u, except that an entry
    not above T (||x||^2 + ||u||^2), or not finite (operands are finite,
    so only S can overflow), is computed from x - u (module docstring).
    """
    (_, sx), (_, su) = X.states[_distance_state], U.states[_distance_state]
    against, xu = X.inner or (None, None)
    X, U = X.rows, U.rows
    with np.errstate(over="ignore", invalid="ignore"):
        scale = sx[:, None] + su[None, :]
        sq = -2.0 * (xu if against is U else _inner(X, U))
        sq += scale
        scale *= (2 * X.shape[1] + 1) * 2.0**-27  # T (module docstring)
        kept = sq > scale
        kept &= sq < np.inf
    del scale
    _direct_sq_distances(X, U, ~kept, sq)
    return sq


def _cross_distance(X: _Prepared, U: _Prepared) -> np.ndarray:
    (nx, _), (nu, _) = X.states[_distance_state], U.states[_distance_state]
    d = _sq_distances(X, U)
    np.sqrt(d, out=d)
    return (nx[:, None] + nu[None, :] - d) / 2.0


def _rank_products(cx: np.ndarray, cu: np.ndarray) -> np.ndarray:
    """cx @ cu.T, as BLAS products of row pieces of at most _BLAS_CALL_PRODUCTS.

    Exact for centered ranks while p <= _EXACT_NUM_LENGTH, so equal to
    ``_inner(cx, cu)`` bitwise.
    """
    num = np.empty((cx.shape[0], cu.shape[0]))
    step = max(1, _BLAS_CALL_PRODUCTS // max(1, cu.size))
    for lo in range(0, cx.shape[0], step):
        np.matmul(cx[lo : lo + step], cu.T, out=num[lo : lo + step])
    return num


def _cross_spearman(X: _Prepared, U: _Prepared) -> np.ndarray:
    if X.shape[1] < 2:
        raise DegenerateLength("spearman needs vectors of length >= 2")
    (cx, ssx), (cu, ssu) = X.states[_rank_state], U.states[_rank_state]
    exact = X.shape[1] <= _EXACT_NUM_LENGTH
    num = _rank_products(cx, cu) if exact else _inner(cx, cu)
    den = np.sqrt(ssx[:, None] * ssu[None, :])
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


# ---------------------------------------------------------------------------
# Kernel registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """A named kernel: scalar form, pairwise evaluator and per-row state.

    ``pairwise`` takes two operands from ``_prepare``; ``state`` computes
    the per-row state it reads from them (none by default).
    """

    name: str
    scalar: Callable[[np.ndarray, np.ndarray], float]
    pairwise: Callable[[_Prepared, _Prepared], np.ndarray]
    state: Callable[[np.ndarray], tuple] = _no_state


INNER_PRODUCT = Kernel("linear", inner_product, _cross_inner)
DISTANCE_INDUCED = Kernel(
    "distance", distance_induced, _cross_distance, _distance_state
)
SPEARMAN_RANK = Kernel("spearman", spearman, _cross_spearman, _rank_state)

BUILTIN_KERNELS = {
    k.name: k for k in (INNER_PRODUCT, DISTANCE_INDUCED, SPEARMAN_RANK)
}

# Candidate set used by the multi-kernel pipeline unless overridden.
DEFAULT_KERNELS = ("linear", "distance", "spearman")

# Name of the baseline kernel required by the switching rule.
BASELINE_KERNEL = "linear"


def _loop_pairwise(scalar: Callable) -> Callable:
    def pairwise(X: _Prepared, U: _Prepared) -> np.ndarray:
        X, U = X.rows, U.rows
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
    with a generic (slow) pairwise loop. A built-in's name means the
    built-in: a callable or Kernel that takes one but is not that
    built-in object raises ``InvalidParams``.
    """
    if isinstance(kind, Kernel):
        k = kind
    elif isinstance(kind, str):
        try:
            return BUILTIN_KERNELS[kind]
        except KeyError:
            raise UnknownKernel(
                f"unknown kernel {kind!r}; expected one of "
                f"{sorted(BUILTIN_KERNELS)} or a Kernel/callable"
            ) from None
    elif callable(kind):
        k = Kernel(getattr(kind, "__name__", "custom"), kind, _loop_pairwise(kind))
    else:
        raise UnknownKernel(f"cannot interpret {kind!r} as a kernel")
    if BUILTIN_KERNELS.get(k.name, k) is not k:
        raise InvalidParams(f"custom kernel {k.name!r} takes a built-in kernel's name")
    return k


# ---------------------------------------------------------------------------
# Matrix evaluation
# ---------------------------------------------------------------------------

def _prepare(A, *kernels) -> _Prepared:
    """A as an operand of the ``kernels``' cross steps, with their per-row state.

    A raw matrix is converted and checked here, once; an operand already
    prepared keeps its rows and its ``inner`` and gets only the states it
    lacks. Raises ``DimensionMismatch`` unless A is a matrix, and
    ``NonFiniteFeature`` (the one finiteness check of kernel operands) if
    it holds NaN or +-inf.
    """
    # Plain loops: this runs on every cross step, a served row's included.
    if isinstance(A, _Prepared):
        new = {}
        for kernel in kernels:
            fn = resolve_kernel(kernel).state
            if fn not in A.states:
                new[fn] = fn(A.rows)
        return _Prepared(A.rows, {**A.states, **new}, A.inner) if new else A
    # Aligned as well as contiguous: numpy's sum-of-products loop would
    # copy a misaligned operand in chunks of its buffer size and split
    # the sums of rows longer than that.
    A = np.require(A, np.float64, "CAE")
    if A.ndim != 2:
        raise DimensionMismatch("kernel matrices must be 2-D")
    if not np.isfinite(A).all():
        raise NonFiniteFeature("features contain NaN or infinite values")
    states = {}
    for kernel in kernels:
        fn = resolve_kernel(kernel).state
        states[fn] = fn(A)
    return _Prepared(A, states)


def kernel_cross(X, U, kernel) -> np.ndarray:
    """Evaluate kernel(X(i,:), U(j,:)) for all i, j; an (n, K) matrix.

    Entries agree bitwise with the scalar kernel for all built-ins. X and
    U may also be operands from ``_prepare``.
    """
    k = resolve_kernel(kernel)
    X, U = _prepare(X, k), _prepare(U, k)
    if X.shape[1] != U.shape[1]:
        raise DimensionMismatch(
            f"column counts differ: {X.shape[1]} vs {U.shape[1]}"
        )
    return k.pairwise(X, U)


def kernel_gram(X, kernel) -> np.ndarray:
    """Full (n, n) kernel matrix of X against itself.

    The inner product uses a BLAS product (the result is still exactly
    symmetric); other kernels reuse the pairwise evaluator on X prepared
    once. Its distance diagonal, where s = 0, is computed from x - u.
    """
    k = resolve_kernel(kernel)
    X = _prepare(X, k)
    if k is INNER_PRODUCT:
        return X.rows @ X.rows.T
    return k.pairwise(X, X)
