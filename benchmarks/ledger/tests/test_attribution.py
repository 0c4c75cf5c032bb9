"""The self-time rule, name normalisation and span bookkeeping, on hand-built
event streams (no ``repro`` import needed)."""

from collections import namedtuple

import pytest

from attribution import (
    Spans,
    median_by_key,
    metric_for,
    normalise_encoding,
    percentile,
    self_times,
    step_breakdown,
)

Ev = namedtuple("Ev", "step node phase wall_s encoding", defaults=("",))
KINDS = {"conv1": "conv", "relu1": "relu", "pool1": "maxpool", "fc": "dense",
         "cat": "concat", "gap": "gavgpool", "bn": "batchnorm"}


def test_backward_self_time_excludes_the_decodes_it_triggered():
    events = [
        Ev(0, "conv1", "forward", 5.0),
        Ev(0, "relu1", "encode", 1.0, "ssdc+dpr-fp16"),
        Ev(0, "fc", "backward", 2.0),
        # pool1's backward pulled two stashes: both decodes sit inside it.
        Ev(0, "relu1", "decode", 0.75, "ssdc+dpr-fp16"),
        Ev(0, "conv1", "decode", 0.25, "recompute"),
        Ev(0, "pool1", "backward", 3.0),
        Ev(0, "conv1", "backward", 4.0),
    ]
    selfs = [s for _, s in self_times(events)]
    assert selfs == [5.0, 1.0, 2.0, 0.75, 0.25, 2.0, 4.0]
    # No over-count: self times sum to the top-level wall time.
    assert sum(selfs) == pytest.approx(5.0 + 1.0 + 2.0 + 3.0 + 4.0)


def test_nesting_resets_at_a_step_boundary():
    events = [
        Ev(0, "relu1", "decode", 1.0, "binarize"),  # never consumed
        Ev(1, "conv1", "backward", 3.0),
    ]
    assert [s for _, s in self_times(events)] == [1.0, 3.0]


@pytest.mark.parametrize("raw, expected", [
    ("ssdc+dpr-fp16", "ssdc"), ("ssdc", "ssdc"), ("dpr-fp16", "dpr"),
    ("dpr-fp8", "dpr"), ("host-swap", "hostswap"),
    ("shared-concat", "shared_concat"), ("binarize", "binarize"),
    ("identity", "identity"), ("recompute", "recompute"), ("rle", "rle"),
])
def test_normalise_encoding(raw, expected):
    assert normalise_encoding(raw) == expected


def test_events_are_charged_to_the_declared_rows():
    kind = KINDS.__getitem__
    assert metric_for(Ev(0, "gap", "forward", 1.0), kind) == (
        "layers.avgpool.forward_ms")
    assert metric_for(Ev(0, "bn", "backward", 1.0), kind) == (
        "layers.other.backward_ms")
    assert metric_for(Ev(0, "relu1", "encode", 1.0, "dpr-fp16"), kind) == (
        "encodings.dpr.encode_ms")
    assert metric_for(Ev(0, "relu1", "decode", 1.0, "host-swap"), kind) == (
        "encodings.hostswap.decode_ms")
    assert metric_for(Ev(0, "cat", "decode", 1.0, "shared-concat"), kind) == (
        "memory.shared_concat.slice_ms")
    assert metric_for(Ev(0, "conv1", "decode", 1.0, "recompute"), kind) == (
        "memory.recompute.replay_ms")


def test_step_breakdown_sums_self_ms_per_step():
    events = [
        Ev(0, "conv1", "forward", 0.002),
        Ev(0, "relu1", "decode", 0.001, "binarize"),
        Ev(0, "conv1", "backward", 0.004),
        Ev(1, "conv1", "forward", 0.003),
    ]
    out = step_breakdown(events, KINDS.__getitem__)
    assert out[0] == pytest.approx({"layers.conv.forward_ms": 2.0,
                                    "encodings.binarize.decode_ms": 1.0,
                                    "layers.conv.backward_ms": 3.0})
    assert out[1] == pytest.approx({"layers.conv.forward_ms": 3.0})


def test_median_by_key_counts_a_missing_key_as_zero():
    rows = [{"a": 1.0, "b": 4.0}, {"a": 3.0}, {"a": 2.0}]
    assert median_by_key(rows) == {"a": 2.0, "b": 0.0}


def test_percentile_is_nearest_rank():
    assert percentile(list(range(1, 41)), 0.9) == 37
    assert percentile([5.0], 0.9) == 5.0


def test_spans_record_parent_op_and_tag():
    spans = Spans()
    spans.op = 3
    with spans.span("op"):
        with spans.span("memory.hybrid.build", "resnet152"):
            pass
        with spans.span("memory.hybrid.build", "alexnet"):
            pass
    rows = spans.to_json()
    assert [r["parent"] for r in rows] == [None, 0, 0]
    assert {r["op"] for r in rows} == {3}
    assert all(r["end_s"] >= r["start_s"] for r in rows)
    per_op = spans.per_op_ms()
    assert set(per_op[3]) == {"op", "memory.hybrid.build"}
    only = spans.per_op_ms(tag="resnet152")[3]
    assert set(only) == {"memory.hybrid.build"}
    assert only["memory.hybrid.build"] <= per_op[3]["memory.hybrid.build"]
