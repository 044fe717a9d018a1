"""BENCHMARK.json must describe exactly what run.py reports."""

import json
from pathlib import Path

import run
from workloads import WORKLOADS

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_workloads_match():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert declared == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match():
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert declared == run.PER_LAYER
