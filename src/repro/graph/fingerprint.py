"""Content-addressed graph identity: a canonical structural fingerprint.

A serve ``plan`` job reports which graph it priced by *what the graph
is*, not by how it happened to be built: two graphs with the same
topology, the same layer kinds and hyper-parameters, the same shapes and
dtypes must hash identically even when their node ids, node names or
construction order differ.

The fingerprint is a Merkle hash over the DAG: every node's digest
covers its own semantic content (layer class/kind, public scalar
hyper-parameters, output shape, saved-state dtypes) plus the digests of
its inputs *in argument order* (argument order is semantic — ``a - b``
is not ``b - a``).  The graph digest then combines the output node's
digest with the sorted multiset of all node digests, which makes it
independent of any id numbering or sibling ordering while still
distinguishing dead branches.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.graph.graph import Graph
from repro.graph.node import OpNode

#: Bump when the canonical form changes; part of every fingerprint, so
#: fingerprints taken under another form never compare equal.
FINGERPRINT_VERSION = 1


def _scalar(value) -> bool:
    return isinstance(value, (bool, int, float, str)) or value is None


def layer_signature(node: OpNode, graph: Graph) -> List:
    """Canonical semantic description of one node's operator.

    Covers the layer's class and kind, every public scalar (or
    scalar-tuple) attribute — which is where conv kernel/stride/pad,
    dropout rate, BN momentum/eps and friends live — the node's output
    shape, and the dtypes of the layer's saved backward state.  Private
    (``_``-prefixed) attributes are runtime state (RNG streams, running
    statistics) and deliberately excluded: they don't change what plan a
    graph deserves.
    """
    layer = node.layer
    attrs = []
    for key in sorted(vars(layer)):
        if key.startswith("_"):
            continue
        value = getattr(layer, key)
        if _scalar(value):
            attrs.append([key, value])
        elif isinstance(value, tuple) and all(_scalar(v) for v in value):
            attrs.append([key, list(value)])
    state_dtypes = [
        [spec.key, spec.dtype.name, list(spec.shape)]
        for spec in layer.saved_state_specs(
            node.input_shapes(graph), node.output_shape
        )
    ]
    return [
        type(layer).__name__,
        layer.kind,
        attrs,
        list(node.output_shape),
        "fp32",  # feature-map storage dtype (uniform across the runtime)
        state_dtypes,
        bool(node.inplace),
    ]


def _digest(parts: List) -> str:
    import json

    blob = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def node_fingerprints(graph: Graph) -> Dict[int, str]:
    """Merkle digest per node id (inputs folded in argument order)."""
    digests: Dict[int, str] = {}
    for node in graph.nodes:  # topological: inputs already hashed
        digests[node.node_id] = _digest([
            layer_signature(node, graph),
            [digests[i] for i in node.inputs],
        ])
    return digests


def graph_fingerprint(graph: Graph) -> str:
    """Order-independent canonical fingerprint of ``graph``.

    A pure function of topology + layer kinds/params + shapes/dtypes:
    invariant under node renaming, id renumbering and construction
    order, sensitive to any semantic change (one hyper-parameter, one
    edge, one extra node).
    """
    digests = node_fingerprints(graph)
    return _digest([
        FINGERPRINT_VERSION,
        digests[graph.output_id],
        sorted(digests.values()),
    ])
