"""Cross-validation, Monte-Carlo replication, and complexity-slope benchmarks.

Within a replicate every method sees the same fold split, and the
features are converted and checked finite once, then given the state of
each kernel the fast methods fit with. Test-fold labels are masked to 0
before the pipeline ever sees them; the held-out fold is then scored
against the true labels. Errors aggregate over fold records (macro over
folds, then replicates). A fold runs one fit for both fast methods, and
each fast method's fold record reads one branch of it, on a monotonic
clock: fast-multi the branch its fit chose, fast-linear always the
inner-product branch (see ``cross_validate``).

For a simulation setting, each replicate redraws the dataset; for a fixed
dataset, replicates only re-split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset
from .errors import InvalidParams, InsufficientGrid, TooFewSamples, check_count
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
        for name, low in ("folds", 2), ("replicates", 1), ("seed", 0), ("threads", 1):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))
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
    """Disjoint index sets partitioning 0..n-1; sizes differ by at most 1.

    ``n`` (at least 1), ``folds`` (at least 1) and ``seed`` (at least 0)
    are checked with ``errors.check_count``.
    """
    n = check_count("n", n, 1)
    folds = check_count("folds", folds, 1)
    seed = check_count("seed", seed, 0)
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


def _reference_fit(dataset: Dataset) -> tuple:
    """The reference pipeline, as ``(z, lda)``: every row embedded through
    the Gram matrix, and the LDA fitted on the training rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = _finite(embed_reference(dataset, BASELINE_KERNEL), "the reference embedding")
        trn = np.flatnonzero(dataset.labels > 0)
        lda = fit_lda(z[trn], dataset.labels[trn], dataset.num_classes)
    return z, lda


def _predict_fold(method, masked, test_idx, fitted) -> tuple:
    """One method's held-out labels on a fold, and its seconds but for preparation.

    ``fitted`` is the fold's one fit as ``(model, wall seconds)``. The fit
    already embedded the held-out rows, and rows are independent, so a
    branch gives the labels ``predict_new`` would. A held-out posterior
    that is not finite raises ``NumericOverflow``.
    """
    start = time.perf_counter()
    if method == METHOD_REFERENCE:
        z, lda = _reference_fit(masked)
        predicted = _predict_held_out(lda, z[test_idx], "reference")
        return predicted, time.perf_counter() - start
    model, spent = fitted
    if method == METHOD_FAST_MULTI:
        branch = next(s for s in model.scores if s.model is model.lda)
    else:
        branch = next(s for s in model.scores if s.kernel is INNER_PRODUCT)
        spent = branch.seconds
    predicted = _predict_held_out(
        branch.model, branch.embedding[test_idx], branch.kernel.name
    )
    return predicted, spent + (time.perf_counter() - start)


def _replicate_seeds(seed, replicate: int) -> tuple:
    state = np.random.SeedSequence([seed, replicate]).generate_state(2)
    return int(state[0]), int(state[1])


def _run_replicate(data, config: EvalConfig, candidates: tuple, replicate: int) -> list:
    data_seed, fold_seed = _replicate_seeds(config.seed, replicate)
    if isinstance(data, SimSetting):
        dataset = generate(data.with_seed(data_seed))
    else:
        dataset = data
    folds = kfold_split(dataset.n, config.folds, fold_seed)
    used = {METHOD_FAST_MULTI: candidates, METHOD_FAST_LINEAR: (INNER_PRODUCT,)}
    used = {m: used[m] for m in config.methods if m in used}
    use = used.get(METHOD_FAST_MULTI, (INNER_PRODUCT,))  # the fold's one fit
    # Both fast methods are charged converting and checking the features,
    # and each the states of its own kernels. A state that overflows (row
    # norms) is reported by the fit; fold fits check their labels.
    charge, fitted = dict.fromkeys(config.methods, 0.0), None
    if used:
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            features = _prepare(dataset.features)
            shared, state_s = time.perf_counter() - start, {}
            for kernel in dict.fromkeys(k for ks in used.values() for k in ks):
                start = time.perf_counter()
                features = _prepare(features, kernel)
                state_s[kernel] = time.perf_counter() - start
        for method, ks in used.items():
            charge[method] = (shared + sum(state_s[k] for k in ks)) / config.folds
    records = []
    for fold_idx, test_idx in enumerate(folds):
        masked_labels = dataset.labels.copy()
        masked_labels[test_idx] = 0
        masked = Dataset(dataset.features, masked_labels, dataset.num_classes)
        if used:
            start = time.perf_counter()
            model = fit(
                masked,
                use,
                config.switch_threshold,
                threads=config.threads,
                _prepared=features,
            )
            fitted = model, time.perf_counter() - start
        for method in config.methods:
            predicted, seconds = _predict_fold(method, masked, test_idx, fitted)
            error = float(np.mean(predicted != dataset.labels[test_idx]))
            records.append(
                FoldRecord(method, replicate, fold_idx, error, seconds + charge[method])
            )
    return records


def cross_validate(data, config: EvalConfig, kernels=DEFAULT_KERNELS) -> EvalReport:
    """K-fold cross-validation of the configured methods.

    ``data`` is either a fixed Dataset (re-split per replicate) or a
    SimSetting (redrawn per replicate). Replicates are independent and
    run on ``config.threads`` workers; the collect is ordered, so the
    report never depends on the schedule. A fit inside a replicate
    embeds its row blocks inline on the replicate's thread (one fan-out
    level).

    A replicate's folds share its features, so they are prepared once per
    replicate as one operand: converted and checked finite once, then
    given the state (ranks, row norms) of each kernel a fast method fits
    with, and reused by every fold's fit. Each fold runs one fit, of
    fast-multi's candidates when fast-multi runs and of the inner product
    alone otherwise. Held-out rows are predicted from the embedding the
    fit already computed for them.

    fast-multi's record reads its fit's chosen branch and is charged the
    fit's wall time. fast-linear's record always reads the inner-product
    branch, whose LDA and embedding do not depend on the other
    candidates, and is charged that branch's ``KernelScore.seconds`` (the
    fit's shared set-up, the branch's embedding and its LDA step). Each
    adds its prediction and an equal per-fold share of preparing the
    features: the conversion and check, which both methods share, and the
    states of its own kernels, fast-multi's candidates or the inner
    product. Work the two methods share counts in both records. Records
    keep the configured method order within each fold; a fold runs its
    fit before the reference pipeline. ``kernels`` is resolved whichever
    methods are configured, so an unknown name raises ``UnknownKernel``,
    and a custom kernel that takes a built-in's name ``InvalidParams``,
    before any replicate runs.
    """
    candidates = _candidates(kernels)
    per_replicate = map_ordered(
        lambda r: _run_replicate(data, config, candidates, r),
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
    n_grid = [check_count("n_grid entry", n, 1) for n in n_grid]
    if len(n_grid) < 4:
        raise InsufficientGrid("need at least 4 grid points")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InsufficientGrid("grid must be strictly ascending")
    if n_grid[-1] < 8 * n_grid[0]:
        raise InsufficientGrid("grid must span at least an 8x range")
    runs = check_count("runs", runs, 1)
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
                train = partial(fit, dataset, kernels)
            else:
                train = partial(_reference_fit, dataset)
            warm = _time_once(train)  # untimed
            while n == n_grid[0] and warm < _WARMUP_SECONDS:
                warm += _time_once(train)
            med = float(np.median([_time_once(train) for _ in range(runs)]))
            medians.append(med)
            points.append(ScalePoint(path, n, med))
        coeffs = np.polyfit(np.log(n_grid), np.log(medians), 1)
        slopes[path] = float(coeffs[0])
    return ScalingReport(points=tuple(points), slopes=slopes)
