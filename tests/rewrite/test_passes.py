"""Unit tests for the inplace rewrite pass and the pass manager."""

from repro.graph.builder import GraphBuilder
from repro.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.rewrite import InplacePass, apply_passes


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
        assert [s.name for s in result.stats] == ["inplace"]
        # The relu runs in the conv's buffer; no layer is replaced.
        marked = {n.name for n in result.graph.nodes if n.inplace}
        assert "relu1" in marked
        assert [type(n.layer) for n in result.graph.nodes] == [
            type(n.layer) for n in graph.nodes
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
        # An empty selection runs nothing and returns the input graph.
        empty = apply_passes(graph, [])
        assert empty.stats == [] and empty.graph is graph
        result = apply_passes(graph, [InplacePass()])
        assert [s.name for s in result.stats] == ["inplace"]
        assert [n.inplace for n in result.graph.nodes] == [
            n.inplace for n in apply_passes(graph).graph.nodes
        ]
