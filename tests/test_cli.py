import json
import subprocess
import sys

import numpy as np
import pytest

from kec import fit, load_model, predict_new, read_csv, save_model

BASE = [sys.executable, "-m", "kec"]


def run(*args, **kwargs):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, **kwargs
    )


def simulate(tmp_path, name="sim.csv", setting="normal-hd", n=80, p=12, k=3, seed=7):
    out = tmp_path / name
    res = run(
        "simulate", "--setting", setting, "--n", str(n), "--p", str(p),
        "--k", str(k), "--seed", str(seed), "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    return out


class TestSimulate:
    def test_writes_expected_rows(self, tmp_path):
        out = simulate(tmp_path, n=100, p=50, k=5)
        lines = out.read_text().splitlines()
        assert len(lines) == 101
        assert lines[0] == ",".join([f"f{i+1}" for i in range(50)] + ["label"])

    def test_byte_identical_reruns(self, tmp_path):
        a = simulate(tmp_path, name="a.csv", seed=3)
        b = simulate(tmp_path, name="b.csv", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_p_smaller_than_k_exits_2(self, tmp_path):
        res = run(
            "simulate", "--setting", "normal-hd", "--n", "10", "--p", "3",
            "--k", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert res.returncode == 2
        assert "p must be" in res.stderr

    def test_unwritable_path_exits_3(self, tmp_path):
        res = run(
            "simulate", "--setting", "normal-hd", "--n", "10", "--p", "10",
            "--k", "2", "--out", str(tmp_path / "no-such-dir" / "x.csv"),
        )
        assert res.returncode == 3


class TestTrain:
    def test_reports_entropies_selection_and_training_error(self, tmp_path):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        res = run("train", "--data", str(data), "--model-out", str(model))
        assert res.returncode == 0, res.stderr
        assert model.exists()
        assert "selected kernel: linear" in res.stdout
        assert "training error: 0" in res.stdout
        for name in ("linear", "distance", "spearman"):
            assert name in res.stdout

    def test_single_kernel_list(self, tmp_path):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        res = run(
            "train", "--data", str(data), "--model-out", str(model),
            "--kernels", "linear",
        )
        assert res.returncode == 0
        assert "selected kernel: linear" in res.stdout

    def test_switch_threshold_flag_accepted(self, tmp_path):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        res = run(
            "train", "--data", str(data), "--model-out", str(model),
            "--switch-threshold", "1.0",
        )
        assert res.returncode == 0

    def test_missing_baseline_exits_2(self, tmp_path):
        data = simulate(tmp_path)
        res = run(
            "train", "--data", str(data), "--model-out",
            str(tmp_path / "m.json"), "--kernels", "spearman",
        )
        assert res.returncode == 2
        assert "inner product" in res.stderr

    def test_missing_file_exits_3(self, tmp_path):
        res = run(
            "train", "--data", str(tmp_path / "absent.csv"), "--model-out",
            str(tmp_path / "m.json"),
        )
        assert res.returncode == 3

    @pytest.mark.parametrize(
        "row",
        [
            "0.5,0.5,99999999999999999999",  # label wider than int64
            "0.5,0.5,1.5",
            "0.5,abc,1",
            "0.5,0.5,-1",
        ],
    )
    def test_malformed_row_exits_2_with_one_line(self, tmp_path, row):
        data = tmp_path / "bad.csv"
        data.write_text(f"f1,f2,label\n0.1,0.2,1\n0.3,0.4,2\n{row}\n")
        model = tmp_path / "m.json"
        res = run("train", "--data", str(data), "--model-out", str(model))
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")
        assert not model.exists()

    def test_training_error_line_matches_predict_new(self, tmp_path):
        # a non-zero training error on a non-baseline kernel, labels hidden
        data = simulate(tmp_path, setting="uniform-hd", n=150, p=6, seed=2)
        lines = data.read_text().splitlines()
        lines[1:] = [
            line.rsplit(",", 1)[0] + ",0" if i % 7 == 0 else line
            for i, line in enumerate(lines[1:])
        ]
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.json"
        res = run(
            "train", "--data", str(data), "--model-out", str(model),
            "--switch-threshold", "1.0",
        )
        assert res.returncode == 0, res.stderr
        ds = read_csv(data)
        trn = ds.labels > 0
        predicted, _ = predict_new(load_model(model), ds.features[trn])
        error = float(np.mean(predicted != ds.labels[trn]))
        assert error > 0.0
        assert "selected kernel: distance" in res.stdout
        assert f"training error: {error:.6g}" in res.stdout.splitlines()


class TestPredict:
    def _trained(self, tmp_path):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        res = run("train", "--data", str(data), "--model-out", str(model))
        assert res.returncode == 0
        return data, model

    def test_training_file_predictions_match_training_error(self, tmp_path):
        data, model = self._trained(tmp_path)
        out = tmp_path / "pred.csv"
        res = run(
            "predict", "--model", str(model), "--data", str(data),
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "label,p1,p2,p3"
        predicted = [int(line.split(",")[0]) for line in lines[1:]]
        truth = [
            int(line.rsplit(",", 1)[1])
            for line in data.read_text().splitlines()[1:]
        ]
        assert predicted == truth  # train reported zero training error
        probs = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        )
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_input_gives_empty_output(self, tmp_path):
        _, model = self._trained(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join([f"f{i+1}" for i in range(12)] + ["label"]) + "\n")
        out = tmp_path / "pred.csv"
        res = run(
            "predict", "--model", str(model), "--data", str(empty),
            "--out", str(out),
        )
        assert res.returncode == 0
        assert out.read_text().splitlines() == ["label,p1,p2,p3"]

    def test_wrong_width_exits_2_naming_both(self, tmp_path):
        _, model = self._trained(tmp_path)
        narrow = simulate(tmp_path, name="narrow.csv", p=9)
        res = run(
            "predict", "--model", str(model), "--data", str(narrow),
            "--out", str(tmp_path / "pred.csv"),
        )
        assert res.returncode == 2
        assert "12" in res.stderr and "9" in res.stderr

    def test_non_finite_row_exits_2(self, tmp_path):
        _, model = self._trained(tmp_path)
        header = ",".join([f"f{i+1}" for i in range(12)] + ["label"])
        for literal in ("nan", "inf", "-inf"):
            bad = tmp_path / f"{literal}.csv"
            row = ",".join(["0.5"] * 11 + [literal, "0"])
            bad.write_text(f"{header}\n{row}\n")
            out = tmp_path / "pred.csv"
            res = run(
                "predict", "--model", str(model), "--data", str(bad),
                "--out", str(out),
            )
            assert res.returncode == 2
            assert "NaN or infinite" in res.stderr
            assert not out.exists()

    def test_non_object_model_exits_2(self, tmp_path):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        model.write_text("[]\n")
        res = run(
            "predict", "--model", str(model), "--data", str(data),
            "--out", str(tmp_path / "pred.csv"),
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "expected an object" in res.stderr


class TestPredictRejectsBadArtifacts:
    """A corrupt model artifact exits 2 with one line and writes nothing."""

    @pytest.mark.parametrize(
        "case",
        [
            "short-priors",
            "short-lda-means",
            "negative-priors",
            "short-cross-entropies",
            "non-pd-covariance",
        ],
    )
    def test_exits_2_without_output(self, tmp_path, case):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        save_model(model, fit(read_csv(data)))
        doc = json.loads(model.read_text())
        if case == "short-priors":
            doc["lda"]["priors"].pop()
        elif case == "short-lda-means":
            doc["lda"]["means"].pop()
        elif case == "negative-priors":
            doc["lda"]["priors"] = [1.5, -0.25, -0.25]
        elif case == "short-cross-entropies":
            doc["cross_entropies"].pop()
        else:
            doc["lda"]["pooled_cov"][0][0] = -1.0
        model.write_text(json.dumps(doc))
        out = tmp_path / "pred.csv"
        res = run(
            "predict", "--model", str(model), "--data", str(data),
            "--out", str(out),
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")
        assert not out.exists()


class TestCv:
    def test_table_and_records(self, tmp_path):
        records = tmp_path / "records.jsonl"
        res = run(
            "cv", "--setting", "uniform-hd", "--n", "100", "--p", "20",
            "--k", "3", "--replicates", "2", "--records", str(records),
        )
        assert res.returncode == 0, res.stderr
        assert "fast-linear" in res.stdout and "fast-multi" in res.stdout
        rows = [json.loads(line) for line in records.read_text().splitlines()]
        kinds = {r["kind"] for r in rows}
        assert kinds == {"summary", "fold"}
        folds = [r for r in rows if r["kind"] == "fold"]
        assert len(folds) == 2 * 5 * 2  # methods x folds x replicates

    def test_methods_share_folds(self, tmp_path):
        records = tmp_path / "records.jsonl"
        res = run(
            "cv", "--setting", "normal-hd", "--n", "80", "--p", "16",
            "--k", "2", "--replicates", "2",
            "--methods", "reference,fast-linear", "--records", str(records),
        )
        assert res.returncode == 0, res.stderr
        rows = [json.loads(line) for line in records.read_text().splitlines()]
        by_method = {}
        for r in rows:
            if r["kind"] == "fold":
                by_method.setdefault(r["method"], []).append(
                    (r["replicate"], r["fold"], r["error"])
                )
        assert by_method["reference"] == by_method["fast-linear"]

    def test_folds_below_two_exit_2(self):
        res = run("cv", "--setting", "uniform-hd", "--n", "50", "--folds", "1")
        assert res.returncode == 2

    def test_unknown_method_exits_2(self):
        res = run(
            "cv", "--setting", "uniform-hd", "--n", "50", "--methods", "svm"
        )
        assert res.returncode == 2

    def test_csv_source(self, tmp_path):
        data = simulate(tmp_path, n=60, p=10, k=2)
        res = run(
            "cv", "--data", str(data), "--replicates", "2",
            "--methods", "fast-linear",
        )
        assert res.returncode == 0, res.stderr
        assert "fast-linear" in res.stdout


class TestBench:
    def test_small_grid_prints_slopes(self, tmp_path):
        records = tmp_path / "bench.jsonl"
        res = run(
            "bench", "--setting", "normal-hd", "--n-grid", "40,80,160,320",
            "--p", "10", "--k", "3", "--runs", "1", "--records", str(records),
        )
        assert res.returncode == 0, res.stderr
        assert "fast log-log slope" in res.stdout
        assert "reference log-log slope" in res.stdout
        rows = [json.loads(line) for line in records.read_text().splitlines()]
        assert {r["kind"] for r in rows} == {"point", "slope"}

    def test_fast_only_path(self):
        res = run(
            "bench", "--n-grid", "40,80,160,320", "--p", "10", "--k", "3",
            "--runs", "1", "--paths", "fast",
        )
        assert res.returncode == 0, res.stderr
        assert "reference" not in res.stdout

    def test_zero_runs_exits_2(self):
        res = run("bench", "--n-grid", "40,80,160,320", "--p", "10", "--runs", "0")
        assert res.returncode == 2
        assert "runs must be at least 1" in res.stderr

    def test_non_ascending_grid_exits_2(self):
        res = run("bench", "--n-grid", "80,40,160,320", "--p", "10", "--runs", "1")
        assert res.returncode == 2


def test_version_flag():
    res = run("--version")
    assert res.returncode == 0
