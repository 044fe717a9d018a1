"""Generators for the six synthetic benchmark settings.

Each setting draws labels 1..K equally likely; a sample of class y carries
the signal distribution in coordinate y and the noise distribution in
every other coordinate:

- uniform family: signal Uniform(1, 3), noise Uniform(0, 1);
  the "noise" variant then adds 0.5 * Uniform(0, 1) per coordinate.
- normal family: signal Normal(8, 1), noise Normal(1, 1);
  the "noise" variant adds 2 * Uniform(0, 1) per coordinate.

The "transformed" variants build on the noise variant and right-multiply
by a p x p matrix Q with i.i.d. Uniform(0, 1) entries, redrawn on every
generate call. Q is returned as metadata so analytic conditional means
can be propagated through the same transform.

Every n x p draw is made in place, in the feature matrix or (the added
noise) in row pieces of at most ``kernels._CHUNK_ELEMS`` elements, so a
non-transformed setting allocates about one n x p matrix. The draws are
bitwise the whole-matrix ``uniform``/``normal`` calls: the same
stream in the same order, and Uniform(0, 1) and Normal(1, 1) are
``random`` and ``standard_normal`` + 1 exactly. Only the transform's
product is a second n x p matrix; it stays one BLAS call, since a product
split by rows can round differently.

The default p is the desk-scale 500; the full-scale experiments behind
the settings used p = 5000, reachable by passing p explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import InvalidParams, UnsupportedSetting, check_count
from .kernels import _piece_rows

UNIFORM_HD = "uniform-hd"
UNIFORM_NOISE = "uniform-noise"
UNIFORM_TRANSFORMED = "uniform-transformed"
NORMAL_HD = "normal-hd"
NORMAL_NOISE = "normal-noise"
NORMAL_TRANSFORMED = "normal-transformed"

SETTINGS = (
    UNIFORM_HD,
    UNIFORM_NOISE,
    UNIFORM_TRANSFORMED,
    NORMAL_HD,
    NORMAL_NOISE,
    NORMAL_TRANSFORMED,
)

_UNIFORM_FAMILY = {UNIFORM_HD, UNIFORM_NOISE, UNIFORM_TRANSFORMED}
_NOISY = {UNIFORM_NOISE, UNIFORM_TRANSFORMED, NORMAL_NOISE, NORMAL_TRANSFORMED}
_TRANSFORMED = {UNIFORM_TRANSFORMED, NORMAL_TRANSFORMED}


@dataclass(frozen=True)
class SimSetting:
    """Which setting to draw from, and its size parameters."""

    name: str
    n: int
    p: int = 500
    num_classes: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.name not in SETTINGS:
            raise InvalidParams(
                f"unknown setting {self.name!r}; expected one of {SETTINGS}"
            )
        for name, low in ("n", 1), ("p", 1), ("num_classes", 1), ("seed", 0):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))
        if self.p < self.num_classes:
            raise InvalidParams(
                f"p must be >= num_classes so every class has a signal "
                f"coordinate (p={self.p}, K={self.num_classes})"
            )

    def with_seed(self, seed: int) -> "SimSetting":
        return replace(self, seed=seed)


def generate_with_transform(setting: SimSetting):
    """Draw (Dataset, Q); Q is None for non-transformed settings.

    The base draw fills the feature matrix in place and the added noise
    goes through one reused buffer of a row piece (module docstring).
    """
    rng = np.random.default_rng(setting.seed)
    n, p, k = setting.n, setting.p, setting.num_classes
    labels = rng.integers(1, k + 1, size=n)
    x = np.empty((n, p))
    if setting.name in _UNIFORM_FAMILY:
        rng.random(out=x)  # uniform(0, 1)
        signal = rng.uniform(1.0, 3.0, size=n)
        noise_scale = 0.5
    else:
        rng.standard_normal(out=x)
        x += 1.0  # normal(1, 1)
        signal = rng.normal(8.0, 1.0, size=n)
        noise_scale = 2.0
    x[np.arange(n), labels - 1] = signal
    if setting.name in _NOISY:
        step = _piece_rows(p)
        noise = np.empty((min(n, step), p))
        for lo in range(0, n, step):
            piece = noise[: min(step, n - lo)]
            rng.random(out=piece)  # uniform(0, 1)
            piece *= noise_scale
            x[lo : lo + step] += piece
    transform = None
    if setting.name in _TRANSFORMED:
        transform = rng.uniform(0.0, 1.0, size=(p, p))
        x = x @ transform
    return Dataset(features=x, labels=labels, num_classes=k), transform


def generate(setting: SimSetting) -> Dataset:
    """Draw a dataset; bit-identical for identical setting parameters."""
    return generate_with_transform(setting)[0]


def analytic_means(setting: SimSetting, transform=None) -> np.ndarray:
    """Exact conditional-mean matrix E(X | Y = k), one class per row.

    For transformed settings the pre-transform means are propagated
    through the supplied Q; omitting Q raises UnsupportedSetting.
    """
    k, p = setting.num_classes, setting.p
    if setting.name in _UNIFORM_FAMILY:
        off, on, noise_mean = 0.5, 2.0, 0.25
    else:
        off, on, noise_mean = 1.0, 8.0, 1.0
    means = np.full((k, p), off)
    means[np.arange(k), np.arange(k)] = on
    if setting.name in _NOISY:
        means += noise_mean
    if setting.name in _TRANSFORMED:
        if transform is None:
            raise UnsupportedSetting(
                "transformed settings need the Q returned by "
                "generate_with_transform"
            )
        means = means @ np.asarray(transform, dtype=np.float64)
    return means
