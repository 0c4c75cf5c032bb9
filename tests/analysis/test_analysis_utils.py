"""Tests for sparsity models and table rendering."""

import pytest

from repro.analysis import (
    ConstantSparsity,
    DEFAULT_SPARSITY_MODEL,
    DepthSparsityModel,
    MeasuredSparsity,
    format_breakdown,
    format_series,
    format_table,
)
from repro.models import vgg16, tiny_cnn


class TestSparsityModels:
    def test_constant(self, tiny_graph):
        model = ConstantSparsity(0.7)
        relu1 = tiny_graph.node_by_name("relu1")
        assert model.sparsity(tiny_graph, relu1.node_id) == 0.7

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantSparsity(1.2)

    def test_depth_model_increases_with_depth(self):
        g = vgg16(batch_size=1)
        model = DepthSparsityModel(base=0.5, gain=0.35)
        shallow = model.sparsity(g, g.node_by_name("relu1_1").node_id)
        deep = model.sparsity(g, g.node_by_name("relu5_3").node_id)
        assert deep > shallow
        assert 0.5 <= shallow <= deep <= 0.85

    def test_depth_model_pool_attenuation(self, tiny_graph):
        model = DepthSparsityModel(base=0.8, gain=0.0)
        relu1 = tiny_graph.node_by_name("relu1")
        pool1 = tiny_graph.node_by_name("pool1")
        s_relu = model.sparsity(tiny_graph, relu1.node_id)
        s_pool = model.sparsity(tiny_graph, pool1.node_id)
        assert s_pool == pytest.approx(s_relu**4)  # 2x2 window

    def test_depth_model_non_relu_is_dense(self, tiny_graph):
        model = DepthSparsityModel()
        conv1 = tiny_graph.node_by_name("conv1")
        assert model.sparsity(tiny_graph, conv1.node_id) == 0.0

    def test_depth_model_validation(self):
        with pytest.raises(ValueError):
            DepthSparsityModel(base=0.9, gain=0.3)  # sum > 1

    def test_measured_with_fallback(self, tiny_graph):
        model = MeasuredSparsity({"relu1": 0.9},
                                 fallback=ConstantSparsity(0.1))
        relu1 = tiny_graph.node_by_name("relu1")
        relu2 = tiny_graph.node_by_name("relu2")
        assert model.sparsity(tiny_graph, relu1.node_id) == 0.9
        assert model.sparsity(tiny_graph, relu2.node_id) == 0.1

    def test_default_model_in_paper_band(self):
        g = vgg16(batch_size=1)
        deep_conv = DEFAULT_SPARSITY_MODEL.sparsity(
            g, g.node_by_name("relu5_3").node_id
        )
        deepest = DEFAULT_SPARSITY_MODEL.sparsity(
            g, g.node_by_name("relu7").node_id
        )
        assert deep_conv > 0.75
        assert deepest > 0.8  # the paper's "going even over 80%"


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "mfr"], [["alexnet", 2.0], ["vgg", 1.6]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "alexnet" in lines[2]
        assert "2.000" in lines[2]

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        text = format_series("acc", [0.5, 0.25])
        assert text.startswith("acc:")
        assert "0.500" in text

    def test_format_breakdown_percentages(self):
        text = format_breakdown("vgg16", {"stashed": 75, "other": 25})
        assert "75.0%" in text
        assert "total=100" in text


class TestTimeline:
    def test_sparkline_peak_is_full_block(self):
        from repro.analysis import sparkline

        line = sparkline([0, 1, 2, 4])
        assert line[-1] == "█"
        assert len(line) == 4

    def test_sparkline_empty(self):
        from repro.analysis import sparkline

        assert sparkline([]) == ""

    def test_sparkline_buckets_long_series(self):
        from repro.analysis import sparkline

        line = sparkline(list(range(1000)), width=50)
        assert len(line) <= 50
        assert line[-1] == "█"  # the peak survives bucketing

    def test_sparkline_all_zero(self):
        from repro.analysis import sparkline

        assert set(sparkline([0, 0, 0])) == {" "}

    def test_memory_timeline(self, tiny_graph):
        from repro.analysis import memory_timeline
        from repro.memory import build_memory_plan

        text = memory_timeline(build_memory_plan(tiny_graph).tensors)
        assert "peak" in text
