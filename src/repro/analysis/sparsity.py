"""Sparsity models for SSDC's static size accounting.

SSDC's compression ratio depends on the data — the fraction of zeros that
ReLU produced.  The paper *measures* this on a live ImageNet run (Figure 14
shows per-layer ratios over 15 epochs of VGG16, with >80% sparsity common).
We cannot train ImageNet-scale networks in NumPy, so the full-size static
accounting uses a model calibrated to the paper's observations (and to our
own scaled-model measurements); the runtime experiments use
:class:`MeasuredSparsity` filled from an actual training run.

Substitution record (see DESIGN.md §2): paper = measured ImageNet
activations; ours = depth-calibrated model + scaled-run measurements.  The
quantity both feed into is identical: a per-layer zero fraction handed to
:func:`repro.encodings.ssdc.csr_bytes`.
"""

from __future__ import annotations

import abc
from types import MappingProxyType
from typing import Dict, Optional

from repro.graph.graph import Graph


class SparsityModel(abc.ABC):
    """Maps a graph node to the expected zero-fraction of its output."""

    @abc.abstractmethod
    def sparsity(self, graph: Graph, node_id: int) -> float:
        """Expected fraction of zeros in the node's output feature map."""

    def _validate(self, value: float) -> float:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {value}")
        return value


class ConstantSparsity(SparsityModel):
    """Every eligible map has the same sparsity (sensitivity sweeps)."""

    def __init__(self, value: float):
        self.value = self._validate(value)

    def sparsity(self, graph: Graph, node_id: int) -> float:
        return self.value


class DepthSparsityModel(SparsityModel):
    """Depth-increasing ReLU sparsity, the paper's observed regime.

    ReLU outputs start around ``base`` sparsity in early layers and rise
    toward ``base + gain`` in the deepest layers (VGG16's deep ReLUs exceed
    80% in Figure 14).  A max-pool output of window ``k`` elements over a
    map with sparsity ``s`` is zero only when the whole window is zero
    (non-negative inputs), modelled as ``s ** k``.

    Args:
        base: Sparsity of the shallowest ReLU.
        gain: Additional sparsity at the deepest ReLU.
    """

    def __init__(self, base: float = 0.5, gain: float = 0.35):
        self.base = self._validate(base)
        self._validate(base + gain)
        self.gain = gain

    def sparsity(self, graph: Graph, node_id: int) -> float:
        node = graph.node(node_id)
        position = graph.derived("topological_position", lambda: (
            MappingProxyType({nid: i for i, nid
                              in enumerate(graph.topological_ids())})))
        depth_frac = position[node_id] / max(len(position) - 1, 1)
        if node.kind == "relu":
            return self.base + self.gain * depth_frac
        if node.kind == "maxpool":
            # Sparsity survives pooling only where the entire window is zero.
            producer = graph.node(node.inputs[0])
            if producer.kind == "relu":
                s = self.sparsity(graph, producer.node_id)
                window = node.layer.kh * node.layer.kw
                return s**window
            return 0.0
        return 0.0


class MeasuredSparsity(SparsityModel):
    """Sparsity recorded from a real training run, keyed by node name.

    Args:
        values: node name → zero fraction.
        fallback: Model consulted for nodes missing from ``values``.
    """

    def __init__(self, values: Dict[str, float],
                 fallback: Optional[SparsityModel] = None):
        self.values = {k: self._validate(v) for k, v in values.items()}
        self.fallback = fallback or ConstantSparsity(0.0)

    def sparsity(self, graph: Graph, node_id: int) -> float:
        name = graph.node(node_id).name
        if name in self.values:
            return self.values[name]
        return self.fallback.sparsity(graph, node_id)


#: Default used by the full-size static accounting; calibrated so VGG16's
#: deep ReLUs land in the >80% band the paper reports.
DEFAULT_SPARSITY_MODEL = DepthSparsityModel(base=0.5, gain=0.38)
