"""Cross-validation, Monte-Carlo replication, and complexity-slope benchmarks.

Within a replicate every method sees the same fold split, and the
features are prepared, which checks them finite, once for each kernel
the fast methods fit with. Test-fold labels are masked to 0 before the
pipeline ever sees them; the held-out fold is then scored against the
true labels. Errors aggregate over fold records (macro over folds, then
replicates); timing wraps fit + predict only, on a monotonic clock;
fast-multi's folds also carry equal shares of preparing the features for
its candidates. When both fast methods run and fast-multi's candidates
hold the inner product, fast-linear does not fit the fold itself: it
predicts from that branch of fast-multi's fit and is charged the
branch's own time (``KernelScore.seconds``) plus its prediction, so work
the two methods share counts once in each method's record.

For a simulation setting, each replicate redraws the dataset; for a fixed
dataset, replicates only re-split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InvalidParams, InsufficientGrid, TooFewSamples
from .kernels import BASELINE_KERNEL, DEFAULT_KERNELS, INNER_PRODUCT, _prepare
from .lda import fit_lda, posterior
from .parallel import map_ordered
from .reference import embed_reference
from .selection import (
    DEFAULT_SWITCH_THRESHOLD,
    _candidates,
    _check_switch_threshold,
    _finite,
    fit,
)
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
    threads: int = 1
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidParams("folds must be at least 2")
        if self.replicates < 1:
            raise InvalidParams("replicates must be at least 1")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise InvalidParams("methods must be non-empty and must not repeat")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise InvalidParams(
                f"unknown methods {unknown}; expected subset of {METHODS}"
            )
        _check_switch_threshold(self.switch_threshold)


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


def _predict_held_out(lda, z, what: str) -> np.ndarray:
    """Labels of held-out rows from their posteriors, checked finite.

    A fit scores only its training rows, so this is the one check on the
    held-out rows' posteriors: one that overflowed float64 raises
    ``NumericOverflow`` rather than reaching a fold record.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        post = _finite(posterior(lda, z), f"the {what} posteriors of held-out rows")
    return np.argmax(post, axis=1) + 1


def _run_fold(method, masked, test_idx, truth, use, threshold, threads, prepared, lin):
    """Fit on the masked dataset, predict the held-out rows, and time it.

    Returns the error, the seconds and the fit (None for reference). The
    fit already embedded the held-out rows, so they are predicted from
    the chosen branch's embedding; rows are independent, so this gives
    the labels ``predict_new`` would. Given ``lin``, the inner-product
    branch of fast-multi's fit on this fold, fast-linear does not fit:
    both fits embed the same masked rows against the same class means, so
    that branch's LDA and embedding are bitwise a fast-linear fit's. It is
    charged ``lin.seconds`` plus its own prediction. A held-out posterior
    that is not finite raises ``NumericOverflow``.
    """
    assert np.all(masked.labels[test_idx] == 0), "test labels leaked into fit"
    start = time.perf_counter()
    model = None
    if method == METHOD_REFERENCE:
        with np.errstate(over="ignore", invalid="ignore"):
            z = _finite(
                embed_reference(masked, BASELINE_KERNEL), "the reference embedding"
            )
            trn = np.flatnonzero(masked.labels > 0)
            lda = fit_lda(z[trn], masked.labels[trn], masked.num_classes)
        predicted = _predict_held_out(lda, z[test_idx], "reference")
    elif lin is not None:
        predicted = _predict_held_out(lin.model, lin.embedding[test_idx], "linear")
        start -= lin.seconds
    else:
        model = fit(masked, use, threshold, threads=threads, _prepared=prepared)
        chosen = next(s for s in model.scores if s.model is model.lda)
        predicted = _predict_held_out(
            model.lda, chosen.embedding[test_idx], model.kernel.name
        )
    seconds = time.perf_counter() - start
    error = float(np.mean(predicted != truth[test_idx]))
    return error, seconds, model


def _replicate_seeds(seed, replicate: int) -> tuple:
    state = np.random.SeedSequence([int(seed), int(replicate)]).generate_state(2)
    return int(state[0]), int(state[1])


def _run_replicate(data, config: EvalConfig, use: dict, replicate: int) -> list:
    data_seed, fold_seed = _replicate_seeds(config.seed, replicate)
    if isinstance(data, SimSetting):
        dataset = generate(data.with_seed(data_seed))
    else:
        dataset = data
    folds = kfold_split(dataset.n, config.folds, fold_seed)
    multi = use[METHOD_FAST_MULTI] if METHOD_FAST_MULTI in config.methods else ()
    # fast-linear reads fast-multi's inner-product branch when there is one,
    # found by identity: a custom kernel named "linear" is another kernel.
    derive = METHOD_FAST_LINEAR in config.methods and any(
        k is INNER_PRODUCT for k in multi
    )
    # The fit a derived fast-linear reads runs first; records keep config order.
    order = sorted(config.methods, key=lambda m: derive and m == METHOD_FAST_LINEAR)
    start = time.perf_counter()
    # Preparing checks the features finite; fold fits check their labels.
    # A state that overflows (row norms) is reported by the fit.
    with np.errstate(over="ignore", invalid="ignore"):
        prepared = {k: _prepare(dataset.features, k) for k in multi}
    charge = (time.perf_counter() - start) / config.folds
    if METHOD_FAST_LINEAR in config.methods and INNER_PRODUCT not in prepared:
        prepared[INNER_PRODUCT] = _prepare(dataset.features, INNER_PRODUCT)
    records = []
    for fold_idx, test_idx in enumerate(folds):
        masked_labels = dataset.labels.copy()
        masked_labels[test_idx] = 0
        masked = Dataset(dataset.features, masked_labels, dataset.num_classes)
        done, fits = {}, {}
        for method in order:
            lin = None
            if derive and method == METHOD_FAST_LINEAR:
                branches = fits[METHOD_FAST_MULTI].scores
                lin = next(s for s in branches if s.kernel is INNER_PRODUCT)
            error, seconds, fits[method] = _run_fold(
                method,
                masked,
                test_idx,
                dataset.labels,
                use.get(method),
                config.switch_threshold,
                config.threads,
                prepared,
                lin,
            )
            if method == METHOD_FAST_MULTI:
                seconds += charge
            done[method] = FoldRecord(method, replicate, fold_idx, error, seconds)
        records.extend(done[method] for method in config.methods)
    return records


def cross_validate(data, config: EvalConfig, kernels=DEFAULT_KERNELS) -> EvalReport:
    """K-fold cross-validation of the configured methods.

    ``data`` is either a fixed Dataset (re-split per replicate) or a
    SimSetting (redrawn per replicate). Replicates are independent and
    run on ``config.threads`` workers; the collect is ordered, so the
    report never depends on the schedule. A fit inside a replicate runs
    its kernel branches inline on the replicate's thread (one fan-out
    level).

    A replicate's folds share its features, so they are prepared (checked
    finite, with their ranks or row norms) once per replicate for each
    kernel a fast method fits with, and reused by every fold's fit; the
    time of fast-multi's candidates is charged in equal shares to
    fast-multi's folds. Held-out rows are predicted from the embedding the
    fit already computed for them.

    When both fast methods run and fast-multi's candidates hold the inner
    product itself (``kernels.INNER_PRODUCT``; a custom kernel named
    "linear" is another kernel), each fold is fitted once: fast-linear
    predicts from fast-multi's inner-product branch, whose LDA and
    embedding are bitwise those a fit of its own would give. Its record's
    ``seconds`` is that branch's ``KernelScore.seconds`` (the fit's shared
    set-up, the branch's embedding and its LDA step) plus its prediction,
    so the shared set-up and the linear branch count in both methods'
    records. Otherwise fast-linear fits the fold itself. Records keep the
    configured method order within each fold. ``kernels`` is resolved
    whichever methods are configured, so an unknown name raises
    ``UnknownKernel`` before any replicate runs.
    """
    use = {
        METHOD_FAST_LINEAR: (INNER_PRODUCT,),
        METHOD_FAST_MULTI: _candidates(kernels),
    }
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


# Busy time spent on each path's first grid point before any timing.
# After the machine idles, small reference trains (dense BLAS products)
# run several times slower for about a second of calls, a stall of fixed
# length rather than of a fixed number of calls, so one untimed call per
# point cannot absorb it.
_WARMUP_SECONDS = 1.5


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
) -> ScalingReport:
    """Median train time per grid point and the log-log slope per path.

    The grid must be ascending with at least 4 points spanning an 8x
    range, and paths must not repeat. Datasets are fully labeled; timing
    covers training only. Each grid point is trained once untimed first,
    and each path's first point until about 1.5 s of training has passed.
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
    if not paths or len(set(paths)) != len(paths):
        raise InvalidParams("paths must be non-empty and must not repeat")
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
                    fit(dataset, kernels)
            else:
                trn = np.flatnonzero(dataset.labels > 0)

                def train():
                    z = embed_reference(dataset, BASELINE_KERNEL)
                    fit_lda(z[trn], dataset.labels[trn], dataset.num_classes)
            warm = _time_once(train)  # untimed
            while n == n_grid[0] and warm < _WARMUP_SECONDS:
                warm += _time_once(train)
            med = float(np.median([_time_once(train) for _ in range(runs)]))
            medians.append(med)
            points.append(ScalePoint(path, n, med))
        coeffs = np.polyfit(np.log(n_grid), np.log(medians), 1)
        slopes[path] = float(coeffs[0])
    return ScalingReport(points=tuple(points), slopes=slopes)
