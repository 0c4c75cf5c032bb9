"""Fault injection: deliberately broken passes must fail the oracle.

Each test plants a realistic rewriter bug — a swapped conv that drops the bias,
a merge of two ops that are not duplicates, a bypass that drops a layer —
and asserts that
:func:`~repro.rewrite.equivalence.check_rewrite_equivalence` catches it
with a detail string naming what diverged.  If one of these passes starts
coming back clean, the oracle has lost its teeth.
"""

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.layers import (
    Add,
    Conv2D,
    Dense,
    Flatten,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.encodings.ssdc import SSDCEncoding
from repro.rewrite import check_rewrite_equivalence
from repro.rewrite.base import RewritePass, clone_node, rebuild
from repro.rewrite.passes import InplacePass


def finish(b, x):
    x = b.add(Flatten(), x)
    x = b.add(Dense(5), x)
    x = b.add(SoftmaxCrossEntropy(), x)
    b.mark_output(x)
    return b.build()


class DroppedBiasConv2D(Conv2D):
    """A conv that forgets its bias — the classic bug of a pass that
    swaps in a fused or specialised kernel."""

    def forward(self, xs, params, ctx, train=True):
        doctored = dict(params)
        doctored["b"] = np.zeros_like(params["b"])
        return super().forward(xs, doctored, ctx, train)


class DroppedBiasConvPass(RewritePass):
    """Swaps the first plain conv for a :class:`DroppedBiasConv2D` twin."""

    name = "bad-conv-swap"

    def run(self, graph):
        conv = next((n for n in graph.nodes if type(n.layer) is Conv2D),
                    None)
        if conv is None:
            return graph, 0
        c = conv.layer
        nodes = {n.node_id: clone_node(n) for n in graph.nodes}
        nodes[conv.node_id].layer = DroppedBiasConv2D(
            c.out_channels, (c.kh, c.kw), c.stride, c.pad)
        return rebuild(graph, nodes, graph.output_id), 1


class ForgetfulMergePass(RewritePass):
    """Merges any same-kind/same-input pair — including parameterised convs
    with *different* weights — and forgets to delete the duplicate node."""

    name = "bad-merge"

    def run(self, graph):
        groups = {}
        for node in graph.nodes:
            if node.node_id in (graph.input_id, graph.output_id):
                continue
            key = (node.kind, tuple(node.inputs), tuple(node.output_shape))
            groups.setdefault(key, []).append(node)
        merges = [sorted(m, key=lambda n: n.node_id)
                  for m in groups.values()
                  if len(m) == 2
                  # idempotence: once the dup dangles, leave it alone
                  and graph.consumers(m[1].node_id)]
        if not merges:
            return graph, 0
        nodes = {n.node_id: clone_node(n) for n in graph.nodes}
        remap = {dup.node_id: keeper.node_id for keeper, dup in merges}
        for node in nodes.values():
            if node.node_id not in remap:  # keep the dup dangling
                node.inputs = [remap.get(i, i) for i in node.inputs]
        return rebuild(graph, nodes, graph.output_id), len(merges)


class FrozenBiasDense(Dense):
    """A dense layer whose bias is frozen: its gradient is all zeros, of
    the sign ``zero`` carries."""

    def __init__(self, out_features, zero=0.0):
        super().__init__(out_features)
        self.zero = zero

    def backward(self, dy, params, ctx):
        dxs, dparams = super().backward(dy, params, ctx)
        dparams["b"] = np.full_like(dparams["b"], self.zero)
        return dxs, dparams


class ZeroSignFlipPass(RewritePass):
    """Turns every frozen bias gradient from ``+0.0`` into ``-0.0``:
    equal under ``==``, different bytes."""

    name = "bad-zero-sign"

    def run(self, graph):
        nodes = {n.node_id: clone_node(n) for n in graph.nodes}
        changes = 0
        for node in nodes.values():
            if (isinstance(node.layer, FrozenBiasDense)
                    and not np.signbit(node.layer.zero)):
                node.layer = FrozenBiasDense(node.layer.out_features, -0.0)
                changes += 1
        return rebuild(graph, nodes, graph.output_id), changes


class LayerBypassPass(RewritePass):
    """Deletes every shape-preserving 1x1 conv behind another conv and
    rewires its consumers onto its input: the forward still type-checks,
    but a parameterised layer that reaches the loss is gone."""

    name = "bad-bypass"

    def run(self, graph):
        doomed = {
            n.node_id: n.inputs[0] for n in graph.nodes
            if isinstance(n.layer, Conv2D) and n.layer.kh == 1
            and graph.node(n.inputs[0]).kind == "conv"
            and graph.node(n.inputs[0]).output_shape == n.output_shape
        }
        if not doomed:
            return graph, 0
        nodes = {n.node_id: clone_node(n) for n in graph.nodes
                 if n.node_id not in doomed}
        for node in nodes.values():
            node.inputs = [doomed.get(i, i) for i in node.inputs]
        return rebuild(graph, nodes, graph.output_id), len(doomed)


class TestFaultInjection:
    def test_dropped_bias_fusion_is_caught(self):
        b = GraphBuilder("g", (2, 3, 8, 8))
        x = b.add(Conv2D(4, 3, pad=1), b.input)
        x = b.add(ReLU(), x)
        graph = finish(b, x)
        violations = check_rewrite_equivalence(
            graph, passes=[DroppedBiasConvPass()]
        )
        assert violations
        # Dropping the bias changes the forward values immediately.
        assert any("loss diverged" in v.detail for v in violations)

    def test_unsound_cse_merge_is_caught(self):
        # Two convs with identical config but independently initialised
        # weights are *not* common subexpressions; merging them changes
        # the forward values, and the dangling duplicate stops receiving
        # gradient.
        b = GraphBuilder("g", (2, 3, 8, 8))
        y1 = b.add(Conv2D(4, 1), b.input)
        y2 = b.add(Conv2D(4, 1), b.input)
        graph = finish(b, b.add(Add(), [y1, y2]))
        violations = check_rewrite_equivalence(
            graph, passes=[ForgetfulMergePass()]
        )
        assert violations
        details = [v.detail for v in violations]
        assert any("loss diverged" in d for d in details)
        assert any("vanished" in d for d in details)

    def test_bypassed_layer_gradient_is_caught(self):
        # No pass may delete a node, so a layer the rewrite dropped is a
        # violation per vanished gradient, not just a loss divergence.
        b = GraphBuilder("g", (2, 3, 8, 8))
        x = b.add(Conv2D(4, 3, pad=1), b.input)
        x = b.add(Conv2D(4, 1), x)
        graph = finish(b, b.add(ReLU(), x))
        dropped = next(n.name for n in graph.nodes
                       if n.kind == "conv" and n.layer.kh == 1)
        violations = check_rewrite_equivalence(
            graph, passes=[LayerBypassPass()]
        )
        vanished = [v.detail for v in violations if "vanished" in v.detail]
        assert {d.split("'")[1] for d in vanished} == {
            f"{dropped}.w", f"{dropped}.b"
        }

    def test_flipped_zero_sign_is_caught(self):
        # "Bit-identical" means bytes: -0.0 == +0.0, so a value-level
        # comparison lets this through (the max-pool tie escape of
        # kernels.plan.bit_identical's docstring, on the rewrite side).
        b = GraphBuilder("g", (2, 3, 8, 8))
        x = b.add(FrozenBiasDense(6), b.add(Flatten(), b.input))
        graph = finish(b, b.add(ReLU(), x))
        violations = check_rewrite_equivalence(
            graph, passes=[ZeroSignFlipPass()]
        )
        assert violations
        assert all("not bit-identical" in v.detail for v in violations)
        assert {v.detail.split("'")[1] for v in violations} == {
            next(n.name for n in graph.nodes
                 if isinstance(n.layer, FrozenBiasDense)) + ".b"
        }

    def test_lossy_codec_under_a_sound_rewrite_is_caught(self, monkeypatch):
        # A codec bug hits the original and the rewritten graph alike, so
        # comparing the two under gist-lossless sees nothing; the one
        # baseline reference does.
        decode = SSDCEncoding.decode

        def first_zero_to_one(self, encoded):
            out = decode(self, encoded)
            zeros = np.flatnonzero(out == 0)
            if zeros.size:
                out.flat[zeros[0]] = 1.0
            return out

        monkeypatch.setattr(SSDCEncoding, "decode", first_zero_to_one)
        # The first relu is marked inplace behind conv1; conv2 feeds the
        # add too, so its relu is not marked.  Both relus are ReLU-Conv
        # maps that gist-lossless stashes through SSDC.
        b = GraphBuilder("g", (2, 3, 8, 8))
        x = b.add(ReLU(), b.add(Conv2D(4, 3, pad=1), b.input))
        y = b.add(Conv2D(4, 3, pad=1), x)
        z = b.add(Conv2D(4, 3, pad=1), b.add(ReLU(), y))
        graph = finish(b, b.add(Add(), [y, z]))
        violations = check_rewrite_equivalence(
            graph, passes=[InplacePass()]
        )
        assert violations
        assert all(v.detail.startswith("policy gist-lossless ")
                   for v in violations)
        assert any("original under baseline vs" in v.detail
                   for v in violations)

    def test_violations_carry_seed_and_subject(self):
        b = GraphBuilder("g", (2, 3, 8, 8))
        x = b.add(Conv2D(4, 3, pad=1), b.input)
        x = b.add(ReLU(), x)
        graph = finish(b, x)
        violations = check_rewrite_equivalence(
            graph, seed=17, passes=[DroppedBiasConvPass()]
        )
        assert violations
        assert all(v.seed == 17 for v in violations)
        assert all(v.subject == graph.name for v in violations)
        assert all(v.oracle == "rewrite-equivalence" for v in violations)
