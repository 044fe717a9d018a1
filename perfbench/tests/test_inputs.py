"""The benchmark's input writers must produce what kec itself would."""

import kec

import inputs


def test_write_csv_matches_kec(tmp_path):
    data = inputs.simulated("uniform-noise", 50, 7, 3, seed=4, tag="csv-train")
    ours, theirs = tmp_path / "ours.csv", tmp_path / "kec.csv"
    inputs.write_csv(ours, data)
    kec.write_csv(theirs, data)
    assert ours.read_bytes() == theirs.read_bytes()
