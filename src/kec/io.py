"""Dataset CSV format and the model artifact file.

CSV: header ``f1,...,fp,label``; features as decimal literals at 17
significant digits (lossless for float64), label an integer in
{0, ..., K}, comma separated, UTF-8, no quoting. numpy's text routines
do the work and this module alone holds the number format: one
``np.loadtxt`` call parses every row after the header (features with the
conversion Python's ``float`` uses, labels strictly as int64; empty lines
are skipped), and ``np.savetxt`` writes ``%.17g`` and ``%d``, so a write
and read round trip gives back the same bits.

Model artifact: a single self-describing JSON document with an explicit
schema version; matrices are stored row-major as nested lists. JSON float
serialization uses repr, so a save/load round trip reproduces predictions
bitwise.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .data import Dataset
from .errors import InvalidParams, KecError, NotFitted
from .kernels import BUILTIN_KERNELS
from .lda import LdaModel
from .selection import EncoderModel

SCHEMA = "kec-model/1"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _write_table(path, names, table) -> None:
    """Write ``table`` under the header ``names``, one row per line.

    The column named ``label`` is written as an integer and every other
    column at 17 significant digits, which reads back as the same float64.
    """
    fmt = ["%d" if name == "label" else "%.17g" for name in names]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", header=",".join(names),
                   comments="")


def write_csv(path, dataset: Dataset) -> None:
    """Write a dataset in the f1..fp,label format."""
    names = [f"f{j + 1}" for j in range(dataset.p)] + ["label"]
    table = np.column_stack([dataset.features, dataset.labels])
    _write_table(path, names, table)


def read_csv(path, num_classes=None) -> Dataset:
    """Load a dataset; K defaults to the largest label in the file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise InvalidParams(f"{path}: missing header row")
        columns = header.split(",")
        if columns[-1] != "label":
            raise InvalidParams(
                f"{path}: last column must be named 'label', got "
                f"{columns[-1]!r}"
            )
        p = len(columns) - 1
        row = np.dtype([("f", np.float64, (p,)), ("label", np.int64)])
        # loadtxt warns on input with no rows, so a header-only file is
        # recognised before it is called.
        first = next((line for line in fh if line.strip()), None)
        table = np.empty(0, dtype=row)
        if first is not None:
            try:
                table = np.loadtxt(itertools.chain([first], fh), dtype=row,
                                   delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:
                raise InvalidParams(
                    f"{path}: expected {p + 1} fields per row, {p} numbers "
                    f"and an integer label: {exc}"
                ) from None
    labs = table["label"]
    if num_classes is None:
        num_classes = int(labs.max()) if labs.size else 1
        if num_classes < 1:
            raise InvalidParams(
                f"{path}: no positive labels; pass num_classes explicitly"
            )
    return Dataset(features=table["f"], labels=labs, num_classes=num_classes)


# ---------------------------------------------------------------------------
# Model artifact
# ---------------------------------------------------------------------------

def save_model(path, model: EncoderModel) -> None:
    """Persist a trained model as a schema-versioned JSON document."""
    if model.kernel.name not in BUILTIN_KERNELS:
        raise InvalidParams(
            f"cannot serialize model with custom kernel {model.kernel.name!r}"
        )
    unknown = [k for k in model.kernel_ids if k not in BUILTIN_KERNELS]
    if unknown:
        raise InvalidParams(f"cannot serialize custom kernels {unknown}")
    doc = {
        "schema": SCHEMA,
        "num_classes": model.num_classes,
        "num_features": model.num_features,
        "kernel": model.kernel.name,
        "kernel_params": {"distance_transform": model.distance_transform},
        "switch_threshold": model.switch_threshold,
        "class_means": model.class_means.tolist(),
        "lda": {
            "means": model.lda.means.tolist(),
            "pooled_cov": model.lda.pooled_cov.tolist(),
            "priors": model.lda.priors.tolist(),
            "ridge": model.lda.ridge,
        },
        "kernel_ids": list(model.kernel_ids),
        "cross_entropies": model.cross_entropies.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> EncoderModel:
    """Load a model artifact written by save_model.

    The artifact is validated before it is accepted: matrix shapes against
    ``num_classes`` and ``num_features``, finite values, priors that are
    positive and sum to 1, a positive-definite covariance, and one
    cross-entropy per candidate with the chosen kernel among them. The
    derived serving state (covariance factor, whitening matrix, prepared
    class means) is rebuilt here; it is not part of the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParams(f"{path}: not a valid model artifact: {exc}")
    if not isinstance(doc, dict):
        raise InvalidParams(
            f"{path}: not a valid model artifact: top level is "
            f"{type(doc).__name__}, expected an object"
        )
    if doc.get("schema") != SCHEMA:
        raise InvalidParams(
            f"{path}: unsupported schema {doc.get('schema')!r}, expected "
            f"{SCHEMA}"
        )
    try:
        kernel = BUILTIN_KERNELS[doc["kernel"]]
        shape = (int(doc["num_classes"]), int(doc["num_features"]))
        class_means = np.array(doc["class_means"], dtype=np.float64)
        lda_means = np.array(doc["lda"]["means"], dtype=np.float64)
        pooled_cov = np.array(doc["lda"]["pooled_cov"], dtype=np.float64)
        priors = np.array(doc["lda"]["priors"], dtype=np.float64)
        ridge = float(doc["lda"]["ridge"])
        cross_entropies = np.array(doc["cross_entropies"], dtype=np.float64)
        kernel_ids = tuple(doc["kernel_ids"])
        switch_threshold = float(doc["switch_threshold"])
        distance_transform = doc["kernel_params"]["distance_transform"]
    except (KeyError, TypeError, ValueError) as exc:
        raise NotFitted(f"{path}: incomplete model artifact ({exc})")
    _check_artifact(
        path, shape, class_means, lda_means, cross_entropies, kernel_ids, kernel
    )
    try:
        lda = LdaModel(
            means=lda_means, pooled_cov=pooled_cov, priors=priors, ridge=ridge
        )
    except KecError as exc:
        raise type(exc)(f"{path}: invalid model artifact: {exc}") from None
    return EncoderModel(
        class_means=class_means,
        kernel=kernel,
        lda=lda,
        cross_entropies=cross_entropies,
        kernel_ids=kernel_ids,
        switch_threshold=switch_threshold,
        distance_transform=distance_transform,
    )


def _check_artifact(path, shape, class_means, lda_means, cross_entropies,
                    kernel_ids, kernel) -> None:
    """Reject what is inconsistent outside the LDA block.

    The LDA block checks its own covariance and priors when constructed.
    """
    k, p = shape
    if k < 1 or p < 1:
        problem = f"num_classes and num_features must be positive, got {shape}"
    elif class_means.shape != shape:
        problem = f"class_means is {class_means.shape}, expected {shape}"
    elif not np.isfinite(class_means).all():
        problem = "class_means contains NaN or infinite values"
    elif lda_means.shape != (k, k):
        problem = f"lda.means is {lda_means.shape}, expected {(k, k)}"
    elif cross_entropies.shape != (len(kernel_ids),):
        problem = (
            f"{cross_entropies.size} cross-entropies for {len(kernel_ids)} kernels"
        )
    elif kernel.name not in kernel_ids:
        problem = f"kernel {kernel.name!r} is not among kernel_ids {list(kernel_ids)}"
    else:
        return
    raise InvalidParams(f"{path}: invalid model artifact: {problem}")
