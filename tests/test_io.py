import dataclasses
import json

import numpy as np
import pytest

from kec import Dataset, fit, predict_new
from kec.errors import (
    DimensionMismatch,
    InvalidParams,
    NotFitted,
    SingularCovariance,
)
from kec.io import load_model, read_csv, save_model, write_csv
from kec.simgen import SimSetting, generate

from helpers import random_dataset, rescaled_pattern_dataset


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        ds = generate(SimSetting("normal-noise", n=40, p=7, num_classes=3, seed=0))
        path = tmp_path / "data.csv"
        write_csv(path, ds)
        back = read_csv(path, num_classes=3)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == 3

    def test_header_format(self, tmp_path):
        ds = Dataset(np.ones((2, 3)), [1, 0], 1)
        path = tmp_path / "data.csv"
        write_csv(path, ds)
        header = path.read_text().splitlines()[0]
        assert header == "f1,f2,f3,label"

    def test_num_classes_defaults_to_max_label(self, tmp_path):
        ds = Dataset(np.zeros((4, 2)), [1, 3, 0, 2], 3)
        path = tmp_path / "data.csv"
        write_csv(path, ds)
        assert read_csv(path).num_classes == 3

    def test_header_only_file_loads_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f1,f2,label\n")
        ds = read_csv(path, num_classes=2)
        assert ds.n == 0 and ds.p == 2

    def test_blank_lines_and_crlf_read_the_same(self, tmp_path):
        ds = generate(SimSetting("uniform-noise", n=30, p=4, num_classes=2, seed=1))
        path = tmp_path / "data.csv"
        write_csv(path, ds)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n\r\n"))
        back = read_csv(path, num_classes=2)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidParams):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f1,f2,label\n1.0,2.0,1\n1.0,1\n")
        with pytest.raises(InvalidParams, match="3 fields"):
            read_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("f1,f2,label\n0.1,0.2,1\n\n0.3,0.4,2\n0.5,1\n", 5),
            ("f1,f2,label\n0.1,0.2,1\n0.3,0.4,2\n0.5,0.5,1.5\n", 4),
            ("f1,f2,label\r\n\r\n0.1,0.2,1\r\n  \r\n0.3,0.4,2\r\n", 4),
            ("f1,f2,label\n\n  \n0.1,0.2,1\n0.3,0.4,2\n", 3),
        ],
        ids=["short-row", "float-label", "blank-only-line", "blank-only-first-line"],
    )
    def test_bad_row_names_its_file_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InvalidParams) as info:
            read_csv(path)
        assert f": line {line}: expected 3 fields" in str(info.value)
        assert "at row" not in str(info.value)
        assert "usecols" not in str(info.value)

    # Text is decoded 8 KiB at a time, so the three files put the bad byte
    # where the header read, the scan for the first data row (past 10000
    # empty lines) and the re-read that looks for the bad row meet it first.
    @pytest.mark.parametrize(
        "data",
        [
            b"f1,f\xe9,label\n0.1,0.2,1\n",
            b"f1,f2,label\n" + b"\n" * 10000 + b"0.1,0.\xe92,1\n",
            b"f1,f2,label\n" + b"0.1,0.2,1\n" * 2000 + b"0.1,0.\xe92,1\n",
        ],
        ids=["header", "first-row", "later-row"],
    )
    def test_non_utf8_byte_names_the_file(self, tmp_path, data):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(InvalidParams, match="not UTF-8 text: byte 0xe9") as info:
            read_csv(path)
        assert str(info.value).startswith(f"{path}: ")


class TestArtifact:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_round_trip_reproduces_predictions_bitwise(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, 80, 9, 3)
        model = fit(ds)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.kernel.name == model.kernel.name
        assert np.array_equal(loaded.class_means, model.class_means)
        assert np.array_equal(loaded.cross_entropies, model.cross_entropies)
        assert loaded.lda.ridge == model.lda.ridge
        x_new = rng.normal(size=(25, 9))
        l1, p1 = predict_new(model, x_new)
        l2, p2 = predict_new(loaded, x_new)
        assert np.array_equal(l1, l2)
        assert np.array_equal(p1, p2)

    def test_round_trip_rebuilds_derived_state_bitwise(self, tmp_path):
        ds = rescaled_pattern_dataset(seed=5)
        model = fit(ds)
        assert model.kernel.name == "spearman"
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        for field in ("chol", "whiten", "log_priors"):
            a, b = getattr(model.lda, field), getattr(loaded.lda, field)
            assert a.tobytes() == b.tobytes()
        states = [m.prepared_means.states[m.kernel.state] for m in (model, loaded)]
        assert len(states[0]) == len(states[1]) == 2
        for a, b in zip(*states):
            assert a.tobytes() == b.tobytes()
        l1, p1 = predict_new(model, ds.features)
        l2, p2 = predict_new(loaded, ds.features)
        assert np.array_equal(l1, l2)
        assert p1.tobytes() == p2.tobytes()

    def test_spearman_model_round_trips(self, tmp_path):
        ds = rescaled_pattern_dataset(seed=2)
        model = fit(ds)
        assert model.kernel.name == "spearman"
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        l1, _ = predict_new(model, ds.features)
        l2, _ = predict_new(loaded, ds.features)
        assert np.array_equal(l1, l2)

    def test_custom_kernel_not_serializable(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 50, 5, 2)

        def my_kernel(x, u):
            return float(np.dot(x, u) + 1.0)

        model = fit(ds, kernels=("linear", my_kernel))
        with pytest.raises(InvalidParams):
            save_model(tmp_path / "model.json", model)

    def test_non_finite_threshold_is_not_written(self, tmp_path):
        model = fit(random_dataset(np.random.default_rng(5), 50, 5, 2))
        path = tmp_path / "model.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="JSON compliant"):
                save_model(path, dataclasses.replace(model, switch_threshold=value))
            assert not path.exists()

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema": "other/9"}\n')
        with pytest.raises(InvalidParams):
            load_model(path)

    def test_truncated_artifact_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema": "kec-model/1", "num_classes": 2}\n')
        with pytest.raises(NotFitted):
            load_model(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json")
        with pytest.raises(InvalidParams):
            load_model(path)

    @pytest.mark.parametrize("text", ["[]", "3", "null", '"kec-model/1"'])
    def test_non_object_top_level_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text + "\n")
        with pytest.raises(InvalidParams, match="expected an object"):
            load_model(path)


class TestArtifactValidation:
    """load_model rejects artifacts that would fail or mislead at predict time."""

    def _doc(self, tmp_path):
        rng = np.random.default_rng(4)
        save_model(tmp_path / "good.json", fit(random_dataset(rng, 60, 5, 3)))
        return json.loads((tmp_path / "good.json").read_text())

    def _load(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return load_model(path)

    def test_valid_artifact_loads(self, tmp_path):
        assert self._load(tmp_path, self._doc(tmp_path)).num_classes == 3

    @pytest.mark.parametrize(
        "mutate, error, message",
        [
            (lambda d: d["lda"]["priors"].pop(), DimensionMismatch, "priors"),
            (lambda d: d["lda"]["means"].pop(), InvalidParams, "lda.means"),
            (
                lambda d: d["lda"]["pooled_cov"].pop(),
                DimensionMismatch,
                "covariance",
            ),
            (lambda d: d["class_means"].pop(), InvalidParams, "class_means"),
            (
                lambda d: d["lda"].update(priors=[1.2, -0.1, -0.1]),
                InvalidParams,
                "positive",
            ),
            (
                lambda d: d["lda"].update(priors=[0.5, 0.5, 0.5]),
                InvalidParams,
                "sum to 1",
            ),
            (lambda d: d.update(num_features=4), InvalidParams, "class_means"),
            (
                lambda d: d["cross_entropies"].pop(),
                InvalidParams,
                "cross-entropies",
            ),
            (
                lambda d: d.update(kernel_ids=["spearman"], cross_entropies=[1.0]),
                InvalidParams,
                "kernel_ids",
            ),
            (
                lambda d: d["lda"]["pooled_cov"][0].__setitem__(0, -1.0),
                SingularCovariance,
                "positive-definite",
            ),
            (
                lambda d: d.update(switch_threshold=float("nan")),
                InvalidParams,
                "switch threshold",
            ),
            (
                lambda d: d["kernel_params"].update(distance_transform="mean"),
                InvalidParams,
                "distance transform 'mean'",
            ),
            (lambda d: d.update(num_classes=float("inf")), NotFitted, "incomplete"),
            (lambda d: d.update(num_features=float("inf")), NotFitted, "incomplete"),
        ],
    )
    def test_inconsistent_artifact_rejected(self, tmp_path, mutate, error, message):
        doc = self._doc(tmp_path)
        mutate(doc)
        with pytest.raises(error, match=message):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("field", ["num_classes", "num_features"])
    @pytest.mark.parametrize(
        "convert",
        [lambda n: n + 0.5, str, float, bool],
        ids=["fraction", "string", "float", "bool"],
    )
    def test_non_integer_counts_rejected(self, tmp_path, field, convert):
        """A count must be a JSON integer; none is truncated or converted."""
        doc = self._doc(tmp_path)
        doc[field] = convert(doc[field])
        with pytest.raises(NotFitted, match="incomplete.*JSON integers"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("ids", [["linear", "cosine"], ["linear", 3], ["linear", []]])
    def test_candidates_must_be_builtin_kernels(self, tmp_path, ids):
        """The file names its candidates, so each must be a built-in kernel."""
        doc = self._doc(tmp_path)
        doc.update(kernel_ids=ids, cross_entropies=[1.0, 2.0])
        with pytest.raises(InvalidParams, match="not built in"):
            self._load(tmp_path, doc)

    def test_non_finite_values_rejected(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["class_means"][1][2] = float("nan")
        with pytest.raises(InvalidParams, match="NaN"):
            self._load(tmp_path, doc)
