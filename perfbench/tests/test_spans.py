"""The tracer must observe kec without changing what kec computes."""

import inspect

import pytest

import kec
import kec.encoder
import kec.selection
from spans import LAYERS, Recorder, Span, layer_metrics, self_times, tracing
from workloads import WORKLOADS

OPS = 3


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request, tmp_path):
    w = WORKLOADS[request.param](seed=5, small=True, workdir=str(tmp_path / "work"))
    w.setup()
    yield w
    w.close()


def test_outputs_bitwise_identical_with_tracing(workload):
    plain = [workload.fingerprint(workload.op(i)) for i in range(OPS)]
    rec = Recorder()
    with tracing(rec):
        traced = []
        for i in range(OPS):
            rec.op = i
            traced.append(workload.fingerprint(workload.op(i)))
    assert traced == plain
    assert rec.spans
    assert all(workload.check(i, workload.op(i)) for i in range(OPS))


def test_tracing_rebinds_every_site_and_restores():
    originals = (kec.fit, kec.selection.embed, kec.encoder.embed)
    with tracing(Recorder()):
        assert kec.selection.embed is kec.encoder.embed
        assert kec.selection.embed is not originals[1]
        assert kec.fit is not originals[0]
    assert (kec.fit, kec.selection.embed, kec.encoder.embed) == originals
    assert all(inspect.isfunction(f) for f in originals)


def test_every_layer_is_traced_by_some_workload(tmp_path):
    seen = set()
    for name, cls in WORKLOADS.items():
        rec = Recorder()
        w = cls(seed=5, small=True, workdir=str(tmp_path / name))
        try:
            with tracing(rec):
                w.setup()
                rec.op = 0
                w.op(0)
        finally:
            w.close()
        seen |= {s.layer for s in rec.spans}
        metrics = layer_metrics([s for s in rec.spans if s.op == 0], 1)
        assert all(v >= 0 for v in metrics.values())
    assert set(LAYERS) <= seen


def _span(id_, parent, layer, start, end):
    s = Span()
    s.id, s.parent, s.layer, s.start, s.end = id_, parent, layer, start, end
    s.name, s.thread, s.op, s.attrs = f"{layer}.x", 0, 0, None
    return s


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, 0, "selection", 0.0, 10.0),
        _span(2, 1, "kernels", 1.0, 3.0),
        _span(3, 1, "kernels", 2.0, 5.0),  # overlaps span 2, another thread
        _span(4, 1, "lda", 9.0, 12.0),  # ends after its parent
    ]
    own = self_times(spans)
    assert own["selection"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["kernels"] == pytest.approx(5.0)
    assert own["lda"] == pytest.approx(3.0)


def test_cv_counts_distinct_embeddings_per_fold(tmp_path):
    w = WORKLOADS["cv-sim"](seed=5, small=True)
    w.setup()
    rec = Recorder()
    with tracing(rec):
        for i in range(2):
            rec.op = i
            w.op(i)
    m = layer_metrics(rec.spans, 2)
    # Per fold: fast-linear fits and predicts with linear; fast-multi fits
    # three kernels and predicts with the chosen one. Three are distinct.
    assert m["evaluation.embeds_per_fold"] == 6.0
    assert m["evaluation.unique_embed_ratio"] == 0.5
