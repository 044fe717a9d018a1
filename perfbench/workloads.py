"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, which ends with
one untimed warm-up operation whose output becomes the reference that
every measured operation is checked against. `op(i)` is the timed unit
of work; `check(i, out)` runs after the timer stops. All kec calls go
through module attributes (`kec.fit`, `kec.cli.main`), so the tracer's
rebinding reaches them.

Every workload passes threads=2 to kec explicitly; the runner pins BLAS
to one thread before numpy loads.
"""

from __future__ import annotations

import contextlib
import io as _io
import os
import shutil
import time

import numpy as np

import kec
import kec.cli

import inputs

THREADS = 2


class SetupError(RuntimeError):
    """The generated inputs do not exercise what the workload is for."""


class Workload:
    name = ""
    rows_per_op = 0

    def __init__(self, seed: int, small: bool = False, workdir=None):
        self.seed = int(seed)
        self.small = small
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def rows(self, i: int) -> int:
        return self.rows_per_op

    def standalone_checks(self) -> list:
        """Untimed (name, passed) checks run once after set-up."""
        return []

    def accuracy(self) -> float:
        raise NotImplementedError

    def keep(self, out):
        """What the runner keeps of an operation's output for extra_metrics."""
        return None

    def extra_metrics(self, ops) -> dict:
        """Workload-specific figures: name -> (value, unit)."""
        return {}

    def fingerprint(self, out) -> bytes:
        """Bytes that identify an operation's output exactly."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class FitMulti(Workload):
    """Repeated multi-kernel fits of one normal-transformed dataset."""

    name = "fit-multi"

    def setup(self):
        n, p, k = (600, 40, 3) if self.small else (10000, 400, 5)
        full = inputs.simulated("normal-transformed", n, p, k, self.seed, "fit-data")
        self.data, self.truth, self.holdout = inputs.with_holdout(
            full, 0.2, inputs.rng_for(self.seed, "fit-holdout")
        )
        self.rows_per_op = n
        self.ref = kec.fit(self.data, threads=THREADS)
        predicted, _ = kec.predict_new(self.ref, self.data.features[self.holdout])
        self.holdout_error = float(np.mean(predicted != self.truth[self.holdout]))

    def op(self, i):
        return kec.fit(self.data, threads=THREADS)

    def check(self, i, model):
        return model.kernel.name == self.ref.kernel.name and _same_bits(
            model.cross_entropies, self.ref.cross_entropies
        )

    def standalone_checks(self):
        rng = inputs.rng_for(self.seed, "fit-subsample")
        rows = np.sort(rng.permutation(self.data.n)[: min(2000, self.data.n)])
        sub = kec.Dataset(
            self.data.features[rows], self.data.labels[rows], self.data.num_classes
        )
        weights = kec.build_weights(sub.labels, kec.validate(sub))
        fast = kec.embed(sub.features, kec.build_U(sub.features, weights), "linear")
        ref = kec.embed_reference(sub, "linear")
        rel = np.linalg.norm(fast - ref) / np.linalg.norm(ref)
        return [("linear embed matches embed_reference", bool(rel <= 1e-10))]

    def accuracy(self):
        return 1.0 - self.holdout_error

    def extra_metrics(self, ops):
        secs = sum(o.seconds for o in ops)
        return {
            "fit_rows_per_s": (self.rows_per_op * len(ops) / secs, "rows/s"),
            "holdout_error": (self.holdout_error, "ratio"),
        }

    def fingerprint(self, model):
        return (
            model.kernel.name.encode()
            + model.cross_entropies.tobytes()
            + model.lda.means.tobytes()
            + model.lda.pooled_cov.tobytes()
            + model.class_means.tobytes()
        )


class ServeSmall(Workload):
    """One closed-loop client sending small predict_new batches to two models."""

    name = "serve-small"
    # Mostly small requests. The weights keep the median and the 99th
    # percentile inside one request type each (a 1-row request and a
    # 64-row request on the rank model) rather than on a boundary
    # between types, where they would jump from run to run.
    SIZES = (1, 8, 64)
    WEIGHTS = (0.5, 0.3, 0.2)
    WARMUP = 64
    SCHEDULE = 1 << 17

    def setup(self):
        if self.small:
            lin_n, lin_p, lin_k, rank_n, rank_p, rank_k, pool = (
                400, 60, 4, 400, 40, 3, 200)
        else:
            lin_n, lin_p, lin_k, rank_n, rank_p, rank_k, pool = (
                3000, 500, 10, 2000, 200, 5, 1000)
        lin = inputs.simulated(
            "normal-hd", lin_n + pool, lin_p, lin_k, self.seed, "serve-linear"
        )
        rank = inputs.rank_patterns(
            rank_n + pool, rank_p, rank_k, inputs.rng_for(self.seed, "serve-rank")
        )
        self.models, self.pools, self.ref = [], [], []
        for data, n_train, want in ((lin, lin_n, "linear"), (rank, rank_n, "spearman")):
            train, held = inputs.split_rows(data, n_train)
            model = kec.fit(train, threads=THREADS)
            if model.kernel.name != want:
                raise SetupError(
                    f"serving model selected {model.kernel.name!r}, expected {want!r}"
                )
            self.models.append(model)
            self.pools.append(held)
            self.ref.append(kec.predict_new(model, held.features))
        rng = inputs.rng_for(self.seed, "serve-mix")
        self.sizes = inputs.request_mix(self.SCHEDULE, self.SIZES, self.WEIGHTS, rng)
        self.starts = rng.integers(0, pool - self.sizes + 1)
        for i in range(self.WARMUP):
            self.op(i)

    def _request(self, i):
        j = i % self.SCHEDULE
        return i % 2, int(self.starts[j]), int(self.sizes[j])

    def rows(self, i):
        return self._request(i)[2]

    def op(self, i):
        m, start, size = self._request(i)
        return kec.predict_new(self.models[m], self.pools[m].features[start:start + size])

    def check(self, i, out):
        m, start, size = self._request(i)
        labels, post = out
        ref_labels, ref_post = self.ref[m]
        return np.array_equal(labels, ref_labels[start:start + size]) and bool(
            np.max(np.abs(post - ref_post[start:start + size])) <= 1e-12
        )

    def accuracy(self):
        hits = sum(int(np.sum(r[0] == p.labels)) for r, p in zip(self.ref, self.pools))
        return hits / sum(p.n for p in self.pools)

    def extra_metrics(self, ops):
        ms = np.array([o.seconds for o in ops]) * 1e3
        rows = sum(o.rows for o in ops)
        return {
            "predict_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "predict_ms_p99": (float(np.percentile(ms, 99)), "ms"),
            "predict_rows_per_s": (rows / float(ms.sum() / 1e3), "rows/s"),
        }

    def fingerprint(self, out):
        return out[0].tobytes() + out[1].tobytes()


class CsvRoundTrip(Workload):
    """`kec train` on one CSV file, then `kec predict` on another, in-process."""

    name = "csv-roundtrip"

    def setup(self):
        n, p, k = (300, 20, 3) if self.small else (5000, 200, 5)
        os.makedirs(self.workdir, exist_ok=True)
        self.train_csv = os.path.join(self.workdir, "train.csv")
        self.predict_csv = os.path.join(self.workdir, "predict.csv")
        self.model_json = os.path.join(self.workdir, "model.json")
        self.out_csv = os.path.join(self.workdir, "predictions.csv")
        train = inputs.simulated("uniform-noise", n, p, k, self.seed, "csv-train")
        self.test = inputs.simulated("uniform-noise", n, p, k, self.seed, "csv-predict")
        inputs.write_csv(self.train_csv, train)
        inputs.write_csv(self.predict_csv, self.test)
        self.rows_per_op = 2 * n
        out = self.op(-1)
        if out["codes"] != (0, 0):
            raise SetupError(f"warm-up round trip exited with {out['codes']}")
        # The CSV keeps 17 significant digits, so the in-memory features are
        # the ones `kec predict` reads back.
        model = kec.load_model(self.model_json)
        self.ref_labels, self.ref_post = kec.predict_new(model, self.test.features)

    def _main(self, argv):
        sink = _io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = kec.cli.main(argv)
            return code, time.perf_counter() - start

    def op(self, i):
        code_t, train_s = self._main([
            "train", "--data", self.train_csv, "--model-out", self.model_json,
            "--threads", str(THREADS),
        ])
        code_p, predict_s = self._main([
            "predict", "--model", self.model_json, "--data", self.predict_csv,
            "--out", self.out_csv,
        ])
        return {"codes": (code_t, code_p), "train_s": train_s, "predict_s": predict_s}

    def _predictions(self):
        table = np.loadtxt(self.out_csv, delimiter=",", skiprows=1, ndmin=2)
        return table[:, 0].astype(np.int64), table[:, 1:]

    def check(self, i, out):
        if out["codes"] != (0, 0):
            return False
        labels, post = self._predictions()
        return np.array_equal(labels, self.ref_labels) and _same_bits(post, self.ref_post)

    def standalone_checks(self):
        return [("prediction CSV equals predict_new on the saved artifact",
                 self.check(-1, {"codes": (0, 0)}))]

    def accuracy(self):
        return float(np.mean(self.ref_labels == self.test.labels))

    def keep(self, out):
        return out["train_s"], out["predict_s"]

    def extra_metrics(self, ops):
        return {
            "cli_train_s": (float(np.median([o.kept[0] for o in ops])), "s"),
            "cli_predict_s": (float(np.median([o.kept[1] for o in ops])), "s"),
        }

    def fingerprint(self, out):
        with open(self.out_csv, "rb") as fh:
            return bytes(out["codes"]) + fh.read()

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


class CvSim(Workload):
    """5-fold cross-validation on redrawn uniform-noise data, two methods."""

    name = "cv-sim"
    METHODS = ("fast-linear", "fast-multi")

    def setup(self):
        n, p, k, reps = (200, 20, 3, 2) if self.small else (2000, 300, 5, 4)
        seed = inputs.sub_seed(self.seed, "cv")
        self.setting = kec.SimSetting("uniform-noise", n=n, p=p, num_classes=k, seed=seed)
        self.config = kec.EvalConfig(
            folds=5, replicates=reps, seed=seed, methods=self.METHODS,
            threads=THREADS,
        )
        self.fits_per_op = self.config.folds * reps * len(self.METHODS)
        self.rows_per_op = n * self.fits_per_op
        self.ref = self._errors(self.op(-1))

    def _errors(self, report):
        return np.array([report.summary(m).error_mean for m in self.METHODS])

    def op(self, i):
        return kec.cross_validate(self.setting, self.config)

    def check(self, i, report):
        return _same_bits(self._errors(report), self.ref)

    def accuracy(self):
        return 1.0 - float(self.ref[1])

    def extra_metrics(self, ops):
        secs = sum(o.seconds for o in ops)
        return {
            "cv_folds_per_s": (self.fits_per_op * len(ops) / secs, "1/s"),
            "cv_error": (float(self.ref[1]), "ratio"),
        }

    def fingerprint(self, report):
        return b"".join(
            np.array([r.fold, r.replicate, r.error]).tobytes() for r in report.records
        )


WORKLOADS = {w.name: w for w in (FitMulti, ServeSmall, CsvRoundTrip, CvSim)}
