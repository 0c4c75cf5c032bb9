"""Execution-graph node: one operator application."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.layers.base import Layer, Shape


@dataclass
class OpNode:
    """A single operator instance in the execution graph.

    Attributes:
        node_id: Dense integer id assigned by the builder (topological for
            sequentially built graphs, but never relied upon for ordering).
        name: Unique human-readable name, e.g. ``"conv3_2"``.
        layer: The operator (shared :class:`~repro.layers.base.Layer`).
        inputs: ``node_id`` of each input edge, in argument order.
        output_shape: Inferred output shape (filled by the builder).
        inplace: Set by the inplace rewrite pass on a consumer the plan
            may merge with its (sole) input's buffer.  The plan prices
            that merge through ``GistConfig.inplace`` and the fingerprint
            hashes the flag; no executor runs it.
    """

    node_id: int
    name: str
    layer: Layer
    inputs: List[int] = field(default_factory=list)
    output_shape: Shape = ()
    inplace: bool = False

    @property
    def kind(self) -> str:
        """The operator kind (``"conv"``, ``"relu"``, ...)."""
        return self.layer.kind

    def input_shapes(self, graph: "Graph") -> Tuple[Shape, ...]:  # noqa: F821
        """Shapes of this node's inputs, resolved through the graph."""
        return tuple(graph.node(i).output_shape for i in self.inputs)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"#{self.node_id}:{self.name}({self.kind})"
