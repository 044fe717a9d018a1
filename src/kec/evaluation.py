"""Cross-validation, Monte-Carlo replication, and complexity-slope benchmarks.

Within a replicate every method sees the same fold split. Test-fold
labels are masked to 0 before the pipeline ever sees them; the held-out
fold is then scored against the true labels. Errors aggregate over fold
records (macro over folds, then replicates); timing wraps fit + predict
only, on a monotonic clock; fast-multi's folds also carry equal shares of
preparing the replicate's features.

For a simulation setting, each replicate redraws the dataset; for a fixed
dataset, replicates only re-split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, validate
from .errors import InvalidParams, InsufficientGrid, TooFewSamples
from .kernels import BASELINE_KERNEL, DEFAULT_KERNELS, _prepare, resolve_kernel
from .lda import fit_lda, predict
from .parallel import map_ordered
from .reference import embed_reference
from .selection import DEFAULT_SWITCH_THRESHOLD, _candidates, fit
from .simgen import SimSetting, generate

METHOD_FAST_MULTI = "fast-multi"
METHOD_FAST_LINEAR = "fast-linear"
METHOD_REFERENCE = "reference"
METHODS = (METHOD_FAST_MULTI, METHOD_FAST_LINEAR, METHOD_REFERENCE)


@dataclass(frozen=True)
class EvalConfig:
    folds: int = 5
    replicates: int = 20
    seed: int = 0
    methods: tuple = (METHOD_FAST_LINEAR, METHOD_FAST_MULTI)
    timing: bool = True
    threads: int = 1
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidParams("folds must be at least 2")
        if self.replicates < 1:
            raise InvalidParams("replicates must be at least 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise InvalidParams(
                f"unknown methods {unknown}; expected a subset of {METHODS}"
            )


@dataclass(frozen=True)
class FoldRecord:
    method: str
    replicate: int
    fold: int
    error: float
    seconds: float


@dataclass(frozen=True)
class MethodSummary:
    method: str
    error_mean: float
    error_std: float
    time_mean: float
    time_std: float


@dataclass(frozen=True)
class EvalReport:
    records: tuple
    summaries: tuple  # MethodSummary per method, in config order

    def summary(self, method: str) -> MethodSummary:
        for s in self.summaries:
            if s.method == method:
                return s
        raise KeyError(method)


def kfold_split(n: int, folds: int, seed) -> list:
    """Disjoint index sets partitioning 0..n-1; sizes differ by at most 1."""
    if folds < 1:
        raise InvalidParams("folds must be at least 1")
    if n < folds:
        raise TooFewSamples(f"cannot split {n} samples into {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _std(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def _run_fold(method, masked, test_idx, truth, use, threshold, threads, prepared):
    """Fit on the masked dataset, predict the held-out rows, and time it.

    The fit already embedded the held-out rows, so they are predicted from
    the chosen branch's embedding; rows are independent, so this gives
    the labels ``predict_new`` would.
    """
    assert np.all(masked.labels[test_idx] == 0), "test labels leaked into fit"
    start = time.perf_counter()
    if method == METHOD_REFERENCE:
        z = embed_reference(masked, BASELINE_KERNEL)
        trn = np.flatnonzero(masked.labels > 0)
        model = fit_lda(z[trn], masked.labels[trn], masked.num_classes)
        predicted = predict(model, z[test_idx])
    else:
        model = fit(masked, use, threshold, threads=threads, _prepared=prepared)
        chosen = next(s for s in model.scores if s.model is model.lda)
        predicted = predict(model.lda, chosen.embedding[test_idx])
    seconds = time.perf_counter() - start
    error = float(np.mean(predicted != truth[test_idx]))
    return error, seconds


def _replicate_seeds(seed, replicate: int) -> tuple:
    state = np.random.SeedSequence([int(seed), int(replicate)]).generate_state(2)
    return int(state[0]), int(state[1])


def _method_kernels(methods, kernels) -> dict:
    """The resolved candidate kernels of each configured fast method."""
    use = {}
    for method in methods:
        if method == METHOD_FAST_LINEAR:
            use[method] = (resolve_kernel(BASELINE_KERNEL),)
        elif method == METHOD_FAST_MULTI:
            use[method] = _candidates(kernels)
    return use


def _run_replicate(data, config: EvalConfig, use: dict, replicate: int) -> list:
    data_seed, fold_seed = _replicate_seeds(config.seed, replicate)
    if isinstance(data, SimSetting):
        dataset = generate(data.with_seed(data_seed))
    else:
        dataset = data
    validate(dataset)
    folds = kfold_split(dataset.n, config.folds, fold_seed)
    start = time.perf_counter()
    prepared = {
        k: _prepare(dataset.features, k) for k in use.get(METHOD_FAST_MULTI, ())
    }
    charge = (time.perf_counter() - start) / config.folds
    records = []
    for fold_idx, test_idx in enumerate(folds):
        masked_labels = dataset.labels.copy()
        masked_labels[test_idx] = 0
        masked = Dataset(dataset.features, masked_labels, dataset.num_classes)
        for method in config.methods:
            error, seconds = _run_fold(
                method,
                masked,
                test_idx,
                dataset.labels,
                use.get(method),
                config.switch_threshold,
                config.threads,
                prepared,
            )
            if method == METHOD_FAST_MULTI:
                seconds += charge
            records.append(
                FoldRecord(method, replicate, fold_idx, error, seconds)
            )
    return records


def cross_validate(data, config: EvalConfig, kernels=DEFAULT_KERNELS) -> EvalReport:
    """K-fold cross-validation of the configured methods.

    ``data`` is either a fixed Dataset (re-split per replicate) or a
    SimSetting (redrawn per replicate). Replicates are independent and
    run on ``config.threads`` workers; the collect is ordered, so the
    report never depends on the schedule. A fit inside a replicate runs
    its kernel branches inline on the replicate's thread (one fan-out
    level).

    A replicate's folds share its features, so fast-multi's per-row state
    of them (ranks, row norms) is computed once per replicate and reused
    by every fold's fit; its time is charged in equal shares to
    fast-multi's folds. fast-linear's kernel keeps no such state. Held-out
    rows are predicted from the embedding the fit already computed for
    them.
    """
    use = _method_kernels(config.methods, kernels)
    per_replicate = map_ordered(
        lambda r: _run_replicate(data, config, use, r),
        range(config.replicates),
        threads=config.threads,
    )
    records = tuple(rec for chunk in per_replicate for rec in chunk)
    summaries = []
    for method in config.methods:
        errs = np.array([r.error for r in records if r.method == method])
        secs = np.array([r.seconds for r in records if r.method == method])
        summaries.append(
            MethodSummary(
                method,
                float(errs.mean()),
                _std(errs),
                float(secs.mean()),
                _std(secs),
            )
        )
    return EvalReport(records=records, summaries=tuple(summaries))


# ---------------------------------------------------------------------------
# Complexity-slope benchmark
# ---------------------------------------------------------------------------

PATH_FAST = "fast"
PATH_REFERENCE = "reference"


@dataclass(frozen=True)
class ScalePoint:
    path: str
    n: int
    median_seconds: float


@dataclass(frozen=True)
class ScalingReport:
    points: tuple  # ScalePoint per (path, n)
    slopes: dict  # path -> fitted log-log slope

    def medians(self, path: str) -> list:
        return [pt for pt in self.points if pt.path == path]


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_scaling(
    setting: SimSetting,
    n_grid,
    kernels=(BASELINE_KERNEL,),
    runs: int = 5,
    paths=(PATH_FAST, PATH_REFERENCE),
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
) -> ScalingReport:
    """Median train time per grid point and the log-log slope per path.

    The grid must be ascending with at least 4 points spanning an 8x
    range. Datasets are fully labeled; timing covers training only.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 4:
        raise InsufficientGrid("need at least 4 grid points")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InsufficientGrid("grid must be strictly ascending")
    if n_grid[-1] < 8 * n_grid[0]:
        raise InsufficientGrid("grid must span at least an 8x range")
    if runs < 1:
        raise InvalidParams("runs must be at least 1")
    unknown = [p for p in paths if p not in (PATH_FAST, PATH_REFERENCE)]
    if unknown:
        raise InvalidParams(f"unknown paths {unknown}")

    points = []
    slopes = {}
    for path in paths:
        medians = []
        for n in n_grid:
            dataset = generate(
                SimSetting(
                    setting.name,
                    n=n,
                    p=setting.p,
                    num_classes=setting.num_classes,
                    seed=setting.seed + n,
                )
            )
            if path == PATH_FAST:
                def train():
                    fit(dataset, kernels, switch_threshold)
            else:
                trn = np.flatnonzero(dataset.labels > 0)

                def train():
                    z = embed_reference(dataset, BASELINE_KERNEL)
                    fit_lda(z[trn], dataset.labels[trn], dataset.num_classes)
            train()  # warmup, untimed
            med = float(np.median([_time_once(train) for _ in range(runs)]))
            medians.append(med)
            points.append(ScalePoint(path, n, med))
        coeffs = np.polyfit(np.log(n_grid), np.log(medians), 1)
        slopes[path] = float(coeffs[0])
    return ScalingReport(points=tuple(points), slopes=slopes)
