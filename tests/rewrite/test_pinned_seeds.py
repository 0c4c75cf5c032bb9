"""Pinned fuzz seeds: counterexample regressions.

Seeds whose graphs historically *failed* the rewrite-equivalence oracle
and drove soundness fixes.  They must stay clean forever.
"""

import numpy as np

from repro.rewrite import apply_passes, check_rewrite_equivalence
from repro.verify.fuzzer import GraphFuzzer
from repro.verify.runner import verify_seed


class TestCounterexampleRegressions:
    def test_seed_4_flatten_alias_stays_clean(self):
        # Historical failure: the inplace pass marked a dropout that
        # consumed a flatten *view* of an LRN output; the in-place write
        # clobbered the LRN's by-reference output stash and corrupted the
        # upstream gradients.  Fixed by walking the alias chain in
        # ``inplace_eligible_edges``, which the plan's inplace merge reads.
        graph = GraphFuzzer(4).graph(max_ops=12)
        result = apply_passes(graph)
        marked = {n.name for n in result.graph.nodes if n.inplace}
        assert "dropout2" not in marked  # the consumer behind the flatten
        assert check_rewrite_equivalence(graph, seed=4) == []

    def test_seed_20_layout_sensitivity_stays_clean(self):
        # Historical failure: running dropout in place preserved the conv
        # producer's non-contiguous (transposed einsum view) layout, and
        # the downstream batch-norm's pairwise mean/var then summed in a
        # different order than over the fresh contiguous array the
        # out-of-place dropout returns — a ~1e-7 gradient drift.  The
        # executor no longer runs inplace marks at all, so the marked
        # graph must train exactly like the unmarked one.
        graph = GraphFuzzer(20).graph(max_ops=12)
        result = apply_passes(graph)
        assert any(n.inplace for n in result.graph.nodes)
        assert check_rewrite_equivalence(graph, seed=20) == []

    def test_counterexample_seeds_pass_full_battery(self):
        for seed in (4, 20):
            assert verify_seed(seed, max_ops=12) == []


class TestInplaceContiguityGuard:
    def test_non_contiguous_buffer_falls_back_out_of_place(self):
        # An inplace-marked node runs out of place: the executor has no
        # inplace path, so the conv's buffer (a non-contiguous einsum
        # view or not) is never written by the marked dropout.
        from repro.graph.builder import GraphBuilder
        from repro.layers import (Conv2D, Dense, Dropout, Flatten,
                                  SoftmaxCrossEntropy)
        from repro.train.executor import GraphExecutor

        b = GraphBuilder("g", (2, 3, 4, 4))
        x = b.add(Conv2D(4, 1), b.input)
        x = b.add(Dropout(p=0.5, seed=1), x)
        x = b.add(Flatten(), x)
        x = b.add(Dense(3), x)
        x = b.add(SoftmaxCrossEntropy(), x)
        b.mark_output(x)
        graph = apply_passes(b.build()).graph
        (dropout,) = [n for n in graph.nodes if n.kind == "dropout"]
        assert dropout.inplace

        ex = GraphExecutor(graph, seed=0)
        rng = np.random.default_rng(0)
        images = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        labels = rng.integers(0, 3, size=2).astype(np.int64)

        captured = {}
        conv_node = [n for n in graph.nodes if n.kind == "conv"][0]
        conv_layer = conv_node.layer
        orig_forward = conv_layer.forward

        def spying_forward(xs, params, ctx, train=True):
            y = orig_forward(xs, params, ctx, train)
            captured["buf"] = y
            captured["copy"] = y.copy()
            return y

        conv_layer.forward = spying_forward
        try:
            ex.forward(images, labels)
        finally:
            conv_layer.forward = orig_forward
        assert np.array_equal(captured["buf"], captured["copy"])
