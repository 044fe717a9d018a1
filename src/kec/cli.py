"""Command-line interface.

Exit codes: 0 success, 2 usage or validation failure, 3 I/O failure.
Tables and data go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .errors import KecError
from .evaluation import (
    EvalConfig,
    PATH_FAST,
    PATH_REFERENCE,
    bench_scaling,
    cross_validate,
)
from .io import _write_table, load_model, read_csv, save_model, write_csv
from .kernels import DEFAULT_KERNELS
from .lda import predict
from .parallel import resolve_threads
from .selection import DEFAULT_SWITCH_THRESHOLD, fit, predict_new
from .simgen import SETTINGS, SimSetting, generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


def _comma_list(value: str) -> list:
    return [item.strip() for item in value.split(",") if item.strip()]


def _add_threads(parser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: KEC_THREADS or machine parallelism)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kec",
        description="Fast multi-kernel encoder classifier",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset as CSV")
    sim.add_argument("--setting", required=True, choices=SETTINGS)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=int, default=500)
    sim.add_argument("--k", type=int, default=5, dest="num_classes")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    train = sub.add_parser("train", help="fit a model on a CSV dataset")
    train.add_argument("--data", required=True)
    train.add_argument("--kernels", default=",".join(DEFAULT_KERNELS))
    train.add_argument(
        "--switch-threshold", type=float, default=DEFAULT_SWITCH_THRESHOLD
    )
    train.add_argument("--model-out", required=True)
    train.add_argument(
        "--num-classes",
        type=int,
        default=None,
        help="K; defaults to the largest label in the file",
    )
    _add_threads(train)

    pred = sub.add_parser("predict", help="label new rows with a saved model")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True)

    cv = sub.add_parser("cv", help="cross-validate methods on a dataset")
    src = cv.add_mutually_exclusive_group(required=True)
    src.add_argument("--data")
    src.add_argument("--setting", choices=SETTINGS)
    cv.add_argument("--n", type=int, default=500)
    cv.add_argument("--p", type=int, default=500)
    cv.add_argument(
        "--k", "--num-classes", type=int, default=None, dest="num_classes",
        help="K; defaults to 5 for --setting and to the largest label for --data",
    )
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--replicates", type=int, default=20)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--methods", default="fast-linear,fast-multi")
    cv.add_argument("--kernels", default=",".join(DEFAULT_KERNELS))
    cv.add_argument(
        "--switch-threshold", type=float, default=DEFAULT_SWITCH_THRESHOLD
    )
    cv.add_argument("--no-timing", action="store_true")
    cv.add_argument("--records", help="also write line-delimited JSON records")
    _add_threads(cv)

    bench = sub.add_parser("bench", help="measure train-time scaling slopes")
    bench.add_argument("--setting", default="normal-hd", choices=SETTINGS)
    bench.add_argument("--n-grid", default="500,1000,2000,4000,8000")
    bench.add_argument("--p", type=int, default=200)
    bench.add_argument("--k", type=int, default=5, dest="num_classes")
    bench.add_argument("--kernels", default="linear")
    bench.add_argument("--runs", type=int, default=5)
    bench.add_argument("--paths", default=f"{PATH_FAST},{PATH_REFERENCE}")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--records", help="also write line-delimited JSON records")
    return parser


def _cmd_simulate(args) -> int:
    setting = SimSetting(
        args.setting, n=args.n, p=args.p, num_classes=args.num_classes,
        seed=args.seed,
    )
    write_csv(args.out, generate(setting))
    print(f"wrote {args.n} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = read_csv(args.data, num_classes=args.num_classes)
    model = fit(
        dataset,
        _comma_list(args.kernels),
        args.switch_threshold,
        threads=resolve_threads(args.threads),
    )
    save_model(args.model_out, model)
    # The chosen branch already embedded every row; predict_new on the
    # training rows would give the same labels.
    trn = dataset.labels > 0
    chosen = next(s for s in model.scores if s.model is model.lda)
    predicted = predict(model.lda, chosen.embedding[trn])
    train_error = float(np.mean(predicted != dataset.labels[trn]))
    print("kernel        cross-entropy")
    for name, ce in zip(model.kernel_ids, model.cross_entropies):
        marker = " *" if name == model.kernel.name else ""
        print(f"{name:<12}  {ce:.6g}{marker}")
    print(f"selected kernel: {model.kernel.name}")
    print(f"training error: {train_error:.6g}")
    print(f"model written to {args.model_out}", file=sys.stderr)
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset = read_csv(args.data, num_classes=model.num_classes)
    labels, post = predict_new(model, dataset.features)
    _write_table(
        args.out,
        ["label"] + [f"p{j + 1}" for j in range(model.num_classes)],
        np.column_stack([labels, post]),
    )
    print(f"wrote {labels.shape[0]} predictions to {args.out}", file=sys.stderr)
    return EXIT_OK


def _write_records(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _cmd_cv(args) -> int:
    config = EvalConfig(
        folds=args.folds,
        replicates=args.replicates,
        seed=args.seed,
        methods=tuple(_comma_list(args.methods)),
        threads=resolve_threads(args.threads),
        switch_threshold=args.switch_threshold,
    )
    if args.data:
        source = read_csv(args.data, num_classes=args.num_classes)
    else:
        source = SimSetting(
            args.setting, n=args.n, p=args.p,
            num_classes=5 if args.num_classes is None else args.num_classes,
            seed=args.seed,
        )
    report = cross_validate(source, config, _comma_list(args.kernels))
    rows = [("method", "error", "time (s)")] + [
        (s.method, f"{s.error_mean:.4f} ± {s.error_std:.4f}",
         f"{s.time_mean:.4f} ± {s.time_std:.4f}")
        for s in report.summaries
    ]
    columns = 2 if args.no_timing else 3
    for row in rows:
        print(f"{row[0]:<14}" + "".join(f"{cell:<22}" for cell in row[1:columns]))
    if args.records:
        _write_records(
            args.records,
            [{"kind": "summary", **dataclasses.asdict(s)} for s in report.summaries]
            + [{"kind": "fold", **dataclasses.asdict(r)} for r in report.records],
        )
    return EXIT_OK


def _cmd_bench(args) -> int:
    setting = SimSetting(
        args.setting, n=2, p=args.p, num_classes=args.num_classes,
        seed=args.seed,
    )
    report = bench_scaling(
        setting,
        [int(v) for v in _comma_list(args.n_grid)],
        kernels=_comma_list(args.kernels),
        runs=args.runs,
        paths=tuple(_comma_list(args.paths)),
    )
    print(f"{'path':<12}{'n':>8}  {'median (s)':>12}")
    for pt in report.points:
        print(f"{pt.path:<12}{pt.n:>8}  {pt.median_seconds:>12.6f}")
    print()
    for path, slope in report.slopes.items():
        print(f"{path} log-log slope: {slope:.3f}")
    if args.records:
        _write_records(
            args.records,
            [{"kind": "point", **dataclasses.asdict(pt)} for pt in report.points]
            + [
                {"kind": "slope", "path": path, "slope": slope}
                for path, slope in report.slopes.items()
            ],
        )
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "cv": _cmd_cv,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
