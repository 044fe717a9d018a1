"""Seeded input generators for the benchmark workloads.

Everything a workload feeds to kec is drawn here from the workload seed,
so the same seed always gives the same inputs. Sub-streams are separated
by a tag, so adding a draw to one input never shifts another.
"""

from __future__ import annotations

import numpy as np

import kec

# Tags that separate the random streams drawn from one workload seed.
_TAGS = {
    "fit-data": 1,
    "fit-holdout": 2,
    "fit-subsample": 3,
    "serve-linear": 4,
    "serve-linear-pool": 5,
    "serve-rank": 6,
    "serve-mix": 7,
    "csv-train": 8,
    "csv-predict": 9,
    "cv": 10,
}


def sub_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one named input stream of a workload seed."""
    state = np.random.SeedSequence([int(seed), _TAGS[tag]]).generate_state(1)
    return int(state[0])


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(sub_seed(seed, tag))


def with_holdout(dataset, fraction: float, rng) -> tuple:
    """Relabel a random `fraction` of rows to 0; returns (masked, true labels, rows)."""
    n = dataset.n
    rows = np.sort(rng.permutation(n)[: int(round(fraction * n))])
    labels = dataset.labels.copy()
    labels[rows] = 0
    masked = kec.Dataset(dataset.features, labels, dataset.num_classes)
    return masked, dataset.labels, rows


def simulated(name: str, n: int, p: int, k: int, seed: int, tag: str):
    """One draw of a kec.simgen setting."""
    return kec.generate(
        kec.SimSetting(name, n=n, p=p, num_classes=k, seed=sub_seed(seed, tag))
    )


def rank_patterns(n: int, p: int, k: int, rng, noise: float = 0.1,
                  log10_scale: float = 2.0):
    """Rows whose class lives only in the ordering of their coordinates.

    Each class has its own random ordering of an evenly spaced ramp; a row
    is its class pattern plus Gaussian noise, multiplied by 10**U(-s, s).
    The row scale wrecks inner-product geometry while leaving ranks
    intact, so a rank kernel separates the classes and the inner product
    does not. Labels cycle through 1..K before the shuffle, so every class
    is present whenever n >= K.
    """
    labels = rng.permutation(np.arange(n) % k + 1)
    ramp = np.linspace(0.0, 1.0, p)
    patterns = np.stack([ramp[rng.permutation(p)] for _ in range(k)])
    x = patterns[labels - 1] + rng.normal(0.0, noise, size=(n, p))
    x *= 10.0 ** rng.uniform(-log10_scale, log10_scale, size=(n, 1))
    return kec.Dataset(x, labels, k)


def split_rows(dataset, n_first: int) -> tuple:
    """Split a dataset into its first n_first rows and the rest."""
    first = kec.Dataset(
        dataset.features[:n_first], dataset.labels[:n_first], dataset.num_classes
    )
    rest = kec.Dataset(
        dataset.features[n_first:], dataset.labels[n_first:], dataset.num_classes
    )
    return first, rest


def write_csv(path, dataset) -> None:
    """Write `dataset` in kec's CSV format, byte for byte as kec.write_csv.

    One format call per row instead of one per value: about 0.8 s instead
    of 1.4 s for 5000 x 200, which keeps set-up short enough to repeat.
    """
    header = ",".join([f"f{j + 1}" for j in range(dataset.p)] + ["label"])
    table = np.column_stack([dataset.features, dataset.labels.astype(np.float64)])
    np.savetxt(path, table, fmt=",".join(["%.17g"] * dataset.p + ["%d"]),
               header=header, comments="", encoding="utf-8")


def request_mix(count: int, sizes, weights, rng) -> np.ndarray:
    """Batch size of each request, drawn from `sizes` with `weights`."""
    return rng.choice(np.asarray(sizes, dtype=np.int64), size=count, p=weights)
