"""Stashed-feature-map classification (paper Figure 3 / Section III).

Every stashed feature map is assigned to one of three classes, which
determine the applicable encoding:

* ``relu_pool`` — a ReLU output none of whose backward users need actual
  values: ReLU's own backward needs only the positivity mask, and any
  consumer that stashes its input is an argmax-rewritable max-pool.
  Eligible for **Binarize**.
* ``relu_conv`` — a ReLU output (or the output of a max-pool directly fed
  by a ReLU, which inherits its sparsity) whose value-needing backward
  users are convolution/dense layers.  Eligible for **SSDC**.
* ``other`` — every remaining stashed feature map.  Eligible for **DPR**.

The classification is purely structural — it reads the layer metadata of
Figure 4, not data — which is what makes Gist a static graph pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.graph.graph import Graph
from repro.graph.liveness import backward_readers
from repro.graph.schedule import TrainingSchedule, schedule_of

STASH_RELU_POOL = "relu_pool"
STASH_RELU_CONV = "relu_conv"
STASH_OTHER = "other"

STASH_CLASSES = (STASH_RELU_POOL, STASH_RELU_CONV, STASH_OTHER)

#: Consumer kinds whose backward pass multiplies against exact stashed
#: input values and therefore admit SSDC's exact CSR round-trip.
_VALUE_CONSUMERS_SSDC = {"conv", "dense"}


@dataclass(frozen=True)
class StashInfo:
    """Classification result for one stashed feature map."""

    node_id: int
    stash_class: str
    #: Consumers whose backward pass reads this map as their input.
    value_consumers: tuple
    #: Whether the producer's own backward pass reads this map.
    producer_needs: bool


def classify_stash(
    graph: Graph, schedule: TrainingSchedule, node_id: int
) -> Optional[StashInfo]:
    """Classify one node's output feature map; ``None`` if not stashed."""
    node = graph.node(node_id)
    producer_needs, consumers = backward_readers(graph, schedule, node_id,
                                                 False)
    if not producer_needs and not consumers:
        return None

    # Binarize: the producer is a ReLU (mask suffices for its backward) and
    # every input-stashing consumer is a pool that Gist rewrites to use the
    # argmax map instead.
    if node.kind == "relu" and all(c.kind == "maxpool" for c in consumers):
        return StashInfo(node_id, STASH_RELU_POOL, tuple(consumers),
                         producer_needs)

    # SSDC: sparse producer (ReLU, or pool-of-ReLU) with conv/dense
    # value consumers.  The producer's own backward (if any) also works on
    # the exactly-reconstructed values.
    sparse_producer = node.kind == "relu" or (
        node.kind == "maxpool"
        and graph.node(node.inputs[0]).kind == "relu"
    )
    if (
        sparse_producer
        and consumers
        and all(
            c.kind in _VALUE_CONSUMERS_SSDC or c.kind == "maxpool"
            for c in consumers
        )
    ):
        return StashInfo(node_id, STASH_RELU_CONV, tuple(consumers),
                         producer_needs)

    return StashInfo(node_id, STASH_OTHER, tuple(consumers), producer_needs)


def classify_all_stashes(
    graph: Graph, schedule: Optional[TrainingSchedule] = None
) -> Dict[int, StashInfo]:
    """Classify every stashed feature map in the graph, keyed by node id.

    Classified once per graph; each call gets its own dict.
    """
    return dict(graph.derived("stash_classes", lambda: _classify_all(
        graph, schedule or schedule_of(graph))))


def _classify_all(graph: Graph,
                  schedule: TrainingSchedule) -> Dict[int, StashInfo]:
    result: Dict[int, StashInfo] = {}
    for node in graph.nodes:
        info = classify_stash(graph, schedule, node.node_id)
        if info is not None:
            result[node.node_id] = info
    return result


def stash_bytes_by_class(graph: Graph,
                         schedule: Optional[TrainingSchedule] = None
                         ) -> Dict[str, int]:
    """Raw FP32 bytes of stashed feature maps per class (Figure 3 bars).

    Max-pool X/Y stashing is attributed to the feature maps themselves
    (the pool's input and output maps), matching how Figure 3 accounts
    "ReLU-Pool" bytes as the ReLU output's footprint.
    """
    result = {c: 0 for c in STASH_CLASSES}
    for node_id, info in classify_all_stashes(graph, schedule).items():
        node = graph.node(node_id)
        elements = 1
        for d in node.output_shape:
            elements *= d
        result[info.stash_class] += 4 * elements
    return result
