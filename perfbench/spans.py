"""Span recorder, call-site wrappers and the per-layer report.

Tracing wraps every public function of the kec modules named in LAYERS
and rebinds the wrapper at every place the function is bound: its own
module, the `kec` package namespace, and every kec module that imported
it by name (`embed` is bound in both `kec.encoder` and `kec.selection`).
Nothing under `src/` changes; spans come from outside, around the calls
into each layer. `kec.reference` is the quadratic-cost correctness oracle
and is deliberately left unwrapped.

Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "data",
    "encoder",
    "kernels",
    "lda",
    "selection",
    "parallel",
    "io",
    "cli",
    "evaluation",
    "simgen",
)

# Private functions that also get a span: one kernel branch of a fit.
_EXTRA = {"selection": ("_score_kernel",)}

KERNEL_NAMES = ("linear", "distance", "spearman")

SETUP_OP = -1


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "thread",
                 "op", "attrs")

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Collects spans in memory; one per call into a wrapped function.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on its thread, or the span passed explicitly
    when work hops to a pool thread. `op` is the workload operation that
    new root spans belong to; child spans inherit their parent's.
    """

    def __init__(self):
        self.spans = []
        self.op = SETUP_OP
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, layer, attrs=None, parent=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span()
        span.id = next(self._ids)
        span.parent = parent.id if parent is not None else 0
        span.name = name
        span.layer = layer
        span.thread = threading.get_ident()
        span.op = parent.op if parent is not None else self.op
        span.attrs = attrs
        span.end = 0.0
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict(), default=_array_repr) + "\n")


def _array_repr(value) -> str:
    return f"array{np.shape(value)}"


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _kernel_attrs(kernels_mod):
    resolve = kernels_mod.resolve_kernel  # the original, captured unwrapped

    def attrs(args, kwargs):
        X, U = args[0], args[1]
        kernel = args[2] if len(args) > 2 else kwargs["kernel"]
        n, p = np.shape(X)
        return {
            "kernel": resolve(kernel).name,
            "elems": int(n) * int(np.shape(U)[0]) * int(p),
        }

    return attrs


def _branch_attrs(args, kwargs):
    return {"kernel": args[0].name}


def _csv_attrs(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _cli_attrs(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


def _folds_attrs(args, kwargs):
    return {"folds": args[1] if len(args) > 1 else kwargs["folds"]}


def _embed_attrs(args, kwargs):
    # U is kept by reference and hashed only when the report needs it.
    kernel = args[2] if len(args) > 2 else kwargs["kernel"]
    return {"kernel": str(getattr(kernel, "name", kernel)), "U": args[1]}


def _embedding_key(attrs) -> tuple:
    U = np.ascontiguousarray(attrs["U"])
    digest = hashlib.blake2b(U.tobytes(), digest_size=8).hexdigest()
    return attrs["kernel"], U.shape, digest


def _wrap(rec: Recorder, fn, name: str, layer: str, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name, layer, attrs(args, kwargs) if attrs else None)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)

    return traced


def _wrap_map(rec: Recorder, fn):
    """map_ordered: a span for the fan-out and one per item, on its thread.

    Item spans take the layer of the caller that fanned out, because the
    item body is the caller's code (a kernel branch, a CV replicate).
    """

    @functools.wraps(fn)
    def traced(item_fn, items, threads=1):
        items = list(items)
        span = rec.open("parallel.map_ordered", "parallel",
                        {"items": len(items)})
        stack = rec._stack()
        caller = stack[-2].layer if len(stack) > 1 else "bench"

        def run_item(item):
            child = rec.open("parallel.item", caller, parent=span)
            try:
                return item_fn(item)
            finally:
                rec.close(child)

        try:
            return fn(run_item, items, threads)
        finally:
            rec.close(span)

    return traced


def _targets(rec: Recorder) -> dict:
    """Original function -> traced wrapper, for every wrapped function."""
    kernels_mod = importlib.import_module("kec.kernels")
    special = {
        "kernels.kernel_cross": _kernel_attrs(kernels_mod),
        "selection._score_kernel": _branch_attrs,
        "io.read_csv": _csv_attrs,
        "cli.main": _cli_attrs,
        "encoder.embed": _embed_attrs,
        "evaluation.kfold_split": _folds_attrs,
    }
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"kec.{layer}")
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in _EXTRA.get(layer, ())
            if not (public and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name == "parallel.map_ordered":
                out[obj] = _wrap_map(rec, obj)
            else:
                out[obj] = _wrap(rec, obj, name, layer, special.get(name))
    return out


@contextmanager
def tracing(rec: Recorder):
    """Rebind every wrapped function at all its binding sites; undo on exit."""
    wrappers = _targets(rec)
    rebound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kec" or mod_name.startswith("kec.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                rebound.append((mod, attr, obj))
    try:
        yield rec
    finally:
        for mod, attr, obj in rebound:
            setattr(mod, attr, obj)


# ---------------------------------------------------------------------------
# Per-layer report
# ---------------------------------------------------------------------------

def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Seconds per layer not covered by that span's direct child spans."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s.layer not in out:
            continue
        kids = children.get(s.id, ())
        out[s.layer] += (s.end - s.start) - _covered(s.start, s.end, kids)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer metrics over the spans of `ops` measured operations.

    Durations and call counts are per operation; rates and ratios are
    over the whole window.
    """
    dur = {}
    calls = {}
    kernel_s = dict.fromkeys(KERNEL_NAMES, 0.0)
    kernel_elems = dict.fromkeys(KERNEL_NAMES, 0)
    branch_s = dict.fromkeys(KERNEL_NAMES, 0.0)
    cli_s = {"train": 0.0, "predict": 0.0}
    csv_bytes = 0
    item_s = 0.0
    for s in spans:
        d = s.end - s.start
        dur[s.name] = dur.get(s.name, 0.0) + d
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "kernels.kernel_cross":
            kernel_s[s.attrs["kernel"]] = kernel_s.get(s.attrs["kernel"], 0.0) + d
            kernel_elems[s.attrs["kernel"]] = (
                kernel_elems.get(s.attrs["kernel"], 0) + s.attrs["elems"]
            )
        elif s.name == "selection._score_kernel":
            branch_s[s.attrs["kernel"]] = branch_s.get(s.attrs["kernel"], 0.0) + d
        elif s.name == "io.read_csv":
            csv_bytes += s.attrs["bytes"]
        elif s.name == "cli.main" and s.attrs["command"] in cli_s:
            cli_s[s.attrs["command"]] += d
        elif s.name == "parallel.item":
            item_s += d

    per_op = max(ops, 1)

    def t(name):
        return dur.get(name, 0.0) / per_op

    def c(name):
        return calls.get(name, 0) / per_op

    own = self_times(spans)
    m = {}
    for k in KERNEL_NAMES:
        m[f"kernels.cross_s.{k}"] = kernel_s[k] / per_op
        m[f"kernels.gelem_per_s.{k}"] = _ratio(kernel_elems[k], kernel_s[k]) / 1e9
    m["kernels.elems"] = _ratio(
        sum(kernel_elems.values()), calls.get("kernels.kernel_cross", 0)
    )
    m["encoder.embed_s"] = t("encoder.embed")
    m["encoder.embed_calls"] = c("encoder.embed")
    m["encoder.build_U_s"] = t("encoder.build_U")
    m["lda.fit_s"] = t("lda.fit_lda")
    m["lda.posterior_s"] = t("lda.posterior")
    m["lda.posterior_calls"] = c("lda.posterior")
    m["selection.fit_s"] = t("selection.fit")
    for k in KERNEL_NAMES:
        m[f"selection.branch_s.{k}"] = branch_s[k] / per_op
    m["selection.predict_new_s"] = t("selection.predict_new")
    m["selection.cross_entropy_s"] = t("selection.cross_entropy")
    m["parallel.map_wall_s"] = t("parallel.map_ordered")
    m["parallel.items"] = c("parallel.item")
    m["parallel.overlap"] = _ratio(item_s, dur.get("parallel.map_ordered", 0.0))
    m["io.read_csv_s"] = t("io.read_csv")
    m["io.read_csv_mb_per_s"] = _ratio(csv_bytes, dur.get("io.read_csv", 0.0)) / 1e6
    m["io.save_model_s"] = t("io.save_model")
    m["io.load_model_s"] = t("io.load_model")
    m["cli.train_s"] = cli_s["train"] / per_op
    m["cli.predict_s"] = cli_s["predict"] / per_op
    m.update(_evaluation_metrics(spans))
    m["simgen.generate_s"] = t("simgen.generate")
    m["data.validate_s"] = t("data.validate")
    m["data.validate_calls"] = c("data.validate")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer] / per_op
    return m


def _evaluation_metrics(spans) -> dict:
    """Embeddings per CV fold and the share of them that were distinct.

    An embedding's identity is its kernel plus the class-mean matrix it
    embeds against; both CV methods of one fold build equal class means,
    and predicting the held-out rows embeds against the same matrix again.
    Distinct embeddings are counted within each operation, since every
    cross_validate call of a run repeats the same folds.
    """
    by_id = {s.id: s for s in spans}
    folds = 0
    keys = []
    for s in spans:
        if s.name == "evaluation.kfold_split":
            folds += int(s.attrs["folds"])
        if s.name != "encoder.embed":
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.layer != "evaluation":
            parent = by_id.get(parent.parent)
        if parent is not None:
            keys.append((s.op, _embedding_key(s.attrs)))
    return {
        "evaluation.embeds_per_fold": _ratio(len(keys), folds),
        "evaluation.unique_embed_ratio": _ratio(len(set(keys)), len(keys)),
    }
