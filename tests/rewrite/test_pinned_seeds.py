"""Pinned fuzz seeds: determinism and counterexample regressions.

Two kinds of pins:

* **determinism** — exact per-pass change counts for rewrite-shapes
  seeds where the pass fires.  A drift here means either the fuzzer's
  decision stream moved (breaking seed-replay of old failures) or a
  pass's trigger conditions changed silently.
* **counterexamples** — seeds whose graphs historically *failed* the
  rewrite-equivalence oracle and drove soundness fixes.  They must stay
  clean forever.
"""

import numpy as np

from repro.rewrite import apply_passes, check_rewrite_equivalence
from repro.verify.fuzzer import GraphFuzzer
from repro.verify.runner import verify_seed

#: rewrite-shapes seeds with exact per-pass change counts.
PINNED_REWRITE_SHAPES = {
    3: {"inplace": 3},
    8: {"inplace": 4},
    20: {"inplace": 5},
}


class TestPinnedDeterminism:
    def test_rewrite_shapes_seeds_fire_every_pass(self):
        for seed, expected in PINNED_REWRITE_SHAPES.items():
            graph = GraphFuzzer(seed).graph(max_ops=12, rewrite_shapes=True)
            result = apply_passes(graph)
            got = {s.name: s.changes for s in result.stats}
            assert got == expected, f"seed {seed}: {got} != {expected}"

    def test_default_stream_unchanged_by_rewrite_flag(self):
        # rewrite_shapes=False must generate byte-identical graphs to the
        # pre-flag fuzzer: the motif branch draws from the RNG only when
        # the flag is on.
        for seed in (0, 4, 19, 20):
            base = GraphFuzzer(seed).graph(max_ops=12)
            explicit = GraphFuzzer(seed).graph(max_ops=12,
                                               rewrite_shapes=False)
            assert [(n.name, n.kind, tuple(n.inputs)) for n in base.nodes] \
                == [(n.name, n.kind, tuple(n.inputs))
                    for n in explicit.nodes]


class TestCounterexampleRegressions:
    def test_seed_4_flatten_alias_stays_clean(self):
        # Historical failure: the inplace pass marked a dropout that
        # consumed a flatten *view* of an LRN output; the in-place write
        # clobbered the LRN's by-reference output stash and corrupted the
        # upstream gradients.  Fixed by walking the alias chain in
        # ``inplace_eligible_edges``.
        graph = GraphFuzzer(4).graph(max_ops=12)
        result = apply_passes(graph)
        marked = {n.name for n in result.graph.nodes if n.inplace}
        assert "dropout2" not in marked  # the consumer behind the flatten
        assert check_rewrite_equivalence(graph, seed=4,
                                         rewrite_result=result) == []

    def test_seed_20_layout_sensitivity_stays_clean(self):
        # Historical failure: running dropout in place preserved the conv
        # producer's non-contiguous (transposed einsum view) layout, and
        # the downstream batch-norm's pairwise mean/var then summed in a
        # different order than over the fresh contiguous array the
        # out-of-place dropout returns — a ~1e-7 gradient drift.  Fixed
        # by the executor's C-contiguity guard on the inplace dispatch.
        graph = GraphFuzzer(20).graph(max_ops=12)
        result = apply_passes(graph)
        assert any(n.inplace for n in result.graph.nodes)
        assert check_rewrite_equivalence(graph, seed=20,
                                         rewrite_result=result) == []

    def test_counterexample_seeds_pass_full_battery(self):
        for seed in (4, 20):
            assert verify_seed(seed, max_ops=12) == []
            assert verify_seed(seed, max_ops=12, rewrite_shapes=True) == []


class TestInplaceContiguityGuard:
    def test_non_contiguous_buffer_falls_back_out_of_place(self):
        # Directly pin the guard: an inplace-marked node fed a
        # non-contiguous buffer must leave that buffer untouched.
        from repro.graph.builder import GraphBuilder
        from repro.layers import (Conv2D, Dense, Dropout, Flatten,
                                  SoftmaxCrossEntropy)
        from repro.train.executor import GraphExecutor

        b = GraphBuilder("g", (2, 3, 4, 4))
        x = b.add(Conv2D(4, 1), b.input)  # einsum view: non-contiguous
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
        if not captured["buf"].flags["C_CONTIGUOUS"]:
            # The guard must have routed dropout out of place, leaving
            # the conv's strided buffer bit-identical.
            assert np.array_equal(captured["buf"], captured["copy"])
