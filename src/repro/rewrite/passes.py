"""The concrete rewrite passes.

Every pass preserves training semantics *bit-for-bit* under the lossless
policies — that is the contract the rewrite-equivalence oracle
(:mod:`repro.rewrite.equivalence`) fuzzes.  The docstring of each pass
states the argument for why its transform is exact; the restrictions the
code enforces are exactly the preconditions of those arguments, so do not
loosen one without extending the other.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.layers.activation import ReLU
from repro.layers.conv import Conv2D
from repro.layers.fused import FusedConvReLU
from repro.layers.pool import ArgmaxMaxPool2D, MaxPool2D
from repro.rewrite.base import RewritePass, clone_node, rebuild


class FuseConvReLUPass(RewritePass):
    """Fuse ``conv → relu`` chains into one :class:`FusedConvReLU` node.

    Preconditions: the conv's *only* forward consumer is a plain
    :class:`ReLU`, and the conv is not the graph output.  The fused node
    keeps the conv's id, name and inputs (so parameters transplant by
    name) and the ReLU's consumers are rewired onto it.

    Exactness: forward delegates to the identical conv kernel then applies
    ``max(·, 0)`` in the conv's own output buffer; backward masks the
    upstream gradient with the saved 1-bit positivity mask — the same 0/1
    multiply ReLU's backward performs — and feeds the identical conv
    backward.  No floating-point operation is reordered.
    """

    name = "fuse-conv-relu"

    def run(self, graph: Graph) -> Tuple[Graph, int]:
        pairs: List[Tuple[OpNode, OpNode]] = []
        for node in graph.nodes:
            if node.kind != "conv" or not isinstance(node.layer, Conv2D):
                continue
            if node.node_id == graph.output_id:
                continue
            consumers = graph.consumers(node.node_id)
            if len(consumers) != 1:
                continue
            relu = consumers[0]
            # Exactly ReLU — a subclass could change backward semantics.
            if type(relu.layer) is not ReLU:
                continue
            pairs.append((node, relu))
        if not pairs:
            return graph, 0

        nodes = {n.node_id: clone_node(n) for n in graph.nodes}
        remap: Dict[int, int] = {}
        for conv, relu in pairs:
            nodes[conv.node_id] = OpNode(
                node_id=conv.node_id,
                name=conv.name,
                layer=FusedConvReLU(conv.layer),
                inputs=list(conv.inputs),
                output_shape=relu.output_shape,
            )
            del nodes[relu.node_id]
            remap[relu.node_id] = conv.node_id
        for node in nodes.values():
            node.inputs = [remap.get(i, i) for i in node.inputs]
        output_id = remap.get(graph.output_id, graph.output_id)
        return rebuild(graph, nodes, output_id), len(pairs)


class PoolArgmaxPass(RewritePass):
    """Swap plain max-pools for :class:`ArgmaxMaxPool2D` (paper §IV-A).

    The runtime max-pool kernels already compute and replay a Y-to-X
    argmax map; only the *static* backward-dependence flags still claim the
    baseline's X/Y stashes.  This pass replaces the layer with the
    flag-honest subclass, so the memory planner stops charging two
    feature-map stashes per pool while execution is untouched (same
    kernels, same saved map, bit-identical gradients).
    """

    name = "pool-argmax"

    def run(self, graph: Graph) -> Tuple[Graph, int]:
        changes = 0
        nodes = {n.node_id: clone_node(n) for n in graph.nodes}
        for node in graph.nodes:
            layer = node.layer
            if type(layer) is not MaxPool2D:
                continue
            if not getattr(layer, "supports_argmax_map", False):
                continue
            nodes[node.node_id].layer = ArgmaxMaxPool2D(
                (layer.kh, layer.kw), layer.stride, layer.pad
            )
            changes += 1
        if not changes:
            return graph, 0
        return rebuild(graph, nodes, graph.output_id), changes


class InplacePass(RewritePass):
    """Mark immediately-consumed maps for in-buffer execution (paper §III-C).

    Promotes the inplace optimisation from a memory-plan *classification*
    (``GistConfig.inplace``, which merges the pair's allocations in the
    plan) to an *executed* transform: eligible consumers get
    ``OpNode.inplace`` set and the executor routes them through
    :meth:`~repro.layers.base.Layer.forward_inplace`, overwriting the
    producer's buffer.

    Eligibility is recomputed from scratch each run via
    :func:`~repro.encodings.inplace.inplace_eligible_edges` — the same
    analysis the planner prices — and stale marks are cleared, so the
    pass is idempotent and sees the graph the structural passes before it
    left.  Exactness: the eligibility conditions
    guarantee no backward op and no stash ever reads the overwritten
    buffer, and every ``forward_inplace`` computes the same values as its
    out-of-place twin.
    """

    name = "inplace"

    def run(self, graph: Graph) -> Tuple[Graph, int]:
        from repro.encodings.inplace import inplace_eligible_edges

        eligible = {c for (_, c) in inplace_eligible_edges(graph)}
        changes = sum(
            1 for n in graph.nodes if n.inplace != (n.node_id in eligible)
        )
        if not changes:
            return graph, 0
        nodes = {}
        for n in graph.nodes:
            clone = clone_node(n)
            clone.inplace = n.node_id in eligible
            nodes[n.node_id] = clone
        return rebuild(graph, nodes, graph.output_id), changes
