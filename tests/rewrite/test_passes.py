"""Unit tests for the individual rewrite passes and the pass manager."""

from repro.graph.builder import GraphBuilder
from repro.layers import (
    Add,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    FusedConvReLU,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.layers.pool import ArgmaxMaxPool2D
from repro.rewrite import (
    FuseConvReLUPass,
    InplacePass,
    PoolArgmaxPass,
    apply_passes,
)


def finish(b, x):
    x = b.add(Flatten(), x)
    x = b.add(Dense(5), x)
    x = b.add(SoftmaxCrossEntropy(), x)
    b.mark_output(x)
    return b.build()


def conv_relu_graph():
    b = GraphBuilder("g", (2, 3, 8, 8))
    x = b.add(Conv2D(4, 3, pad=1), b.input)
    x = b.add(ReLU(), x)
    x = b.add(MaxPool2D(2, 2), x)
    return finish(b, x)


class TestFuseConvReLU:
    def test_fuses_single_consumer_chain(self):
        graph = conv_relu_graph()
        rewritten, changes = FuseConvReLUPass().run(graph)
        assert changes == 1
        assert len(rewritten.nodes) == len(graph.nodes) - 1
        fused = [n for n in rewritten.nodes if n.kind == "conv_relu"]
        assert len(fused) == 1
        # The fused node keeps the conv's name so parameters transplant.
        assert fused[0].name == "conv1"
        assert isinstance(fused[0].layer, FusedConvReLU)
        assert not any(n.kind == "relu" for n in rewritten.nodes)
        # The pool now consumes the fused node directly.
        (pool,) = [n for n in rewritten.nodes if n.kind == "maxpool"]
        assert pool.inputs == [fused[0].node_id]

    def test_skips_multi_consumer_conv(self):
        b = GraphBuilder("g", (2, 3, 8, 8))
        conv = b.add(Conv2D(3, 3, pad=1), b.input)
        relu = b.add(ReLU(), conv)
        merged = b.add(Add(), [conv, relu])  # conv has two consumers
        graph = finish(b, merged)
        _, changes = FuseConvReLUPass().run(graph)
        assert changes == 0


class TestPoolArgmax:
    def test_replaces_layer_and_drops_xy_stash(self):
        from repro.core.analysis import stash_bytes_by_class

        graph = conv_relu_graph()
        rewritten, changes = PoolArgmaxPass().run(graph)
        assert changes == 1
        (pool,) = [n for n in rewritten.nodes if n.kind == "maxpool"]
        assert type(pool.layer) is ArgmaxMaxPool2D
        before = sum(stash_bytes_by_class(graph).values())
        after = sum(stash_bytes_by_class(rewritten).values())
        assert after < before


class TestInplace:
    def test_marks_immediately_consumed_map(self):
        b = GraphBuilder("g", (2, 3, 8, 8))
        x = b.add(Conv2D(4, 1), b.input)
        x = b.add(Dropout(p=0.3, seed=7), x)
        graph = finish(b, x)
        rewritten, changes = InplacePass().run(graph)
        assert changes >= 1
        marked = {n.name for n in rewritten.nodes if n.inplace}
        assert "dropout1" in marked

    def test_alias_chain_blocks_mark(self):
        # Regression for a soundness hole the equivalence oracle caught
        # (fuzz seed 4): flatten returns a *view* of LRN's output, and
        # LRN's backward reads that output, so the dropout behind the
        # flatten must not run inplace — it would clobber the stash.
        b = GraphBuilder("g", (2, 3, 4, 4))
        x = b.add(LocalResponseNorm(size=3), b.input)
        x = b.add(Flatten(), x)
        x = b.add(Dropout(p=0.3, seed=7), x)
        graph = finish(b, x)
        rewritten, _ = InplacePass().run(graph)
        marked = {n.name for n in rewritten.nodes if n.inplace}
        assert "dropout1" not in marked

    def test_clears_stale_marks(self):
        graph = conv_relu_graph()
        bogus = graph.node(graph.output_id)
        bogus.inplace = True  # no pass would mark the loss node
        rewritten, changes = InplacePass().run(graph)
        assert changes >= 1
        assert not rewritten.node(rewritten.output_id).inplace


class TestManager:
    def test_fixed_point_and_report(self):
        graph = conv_relu_graph()
        result = apply_passes(graph)
        assert result.changed
        assert result.total_changes >= 2  # fusion + pool at least
        assert [s.name for s in result.stats] == [
            "fuse-conv-relu", "pool-argmax", "inplace"
        ]
        report = result.report()
        for s in result.stats:
            assert s.name in report
        # One sweep already reaches the fixed point: re-applying is a no-op.
        again = apply_passes(result.graph)
        assert again.total_changes == 0
        assert not again.changed

    def test_single_pass_selection(self):
        graph = conv_relu_graph()
        result = apply_passes(graph, [PoolArgmaxPass()])
        assert [s.name for s in result.stats] == ["pool-argmax"]
        # Fusion not selected: the relu node must survive.
        assert any(n.kind == "relu" for n in result.graph.nodes)
