"""Rewrite-pass plumbing: the pass interface and its result types.

A rewrite pass is a pure graph→graph function (the input
:class:`~repro.graph.graph.Graph` is never mutated) that returns the new
graph plus a count of the rewrites it performed.  Passes are composed by
:func:`repro.rewrite.manager.apply_passes`, which runs them once in
order; a pass MUST report zero when (and only when) it left the graph
unchanged, because a zero total is how the equivalence oracle knows
there is nothing to train.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.graph.graph import Graph
from repro.graph.node import OpNode


def clone_node(node: OpNode) -> OpNode:
    """Fresh :class:`OpNode` sharing the (stateless-at-rewrite-time) layer.

    Layers are deliberately shared, not copied: they carry parameter
    *shapes* and kernels, never parameter values, so sharing keeps a
    rewritten graph's parameter initialisation and kernel dispatch
    identical to the original's for every surviving node.
    """
    return OpNode(
        node_id=node.node_id,
        name=node.name,
        layer=node.layer,
        inputs=list(node.inputs),
        output_shape=node.output_shape,
        inplace=node.inplace,
    )


def rebuild(graph: Graph, nodes: Dict[int, OpNode], output_id: int) -> Graph:
    """New :class:`Graph` over ``nodes``, revalidating edges and acyclicity."""
    return Graph(graph.name, nodes, graph.input_id, output_id)


class RewritePass(abc.ABC):
    """One composable graph→graph transform."""

    #: Stable pass name, the key of its count in stats and benches.
    name: str = "rewrite"

    @abc.abstractmethod
    def run(self, graph: Graph) -> Tuple[Graph, int]:
        """Apply the pass once.

        Returns:
            ``(new_graph, changes)`` — ``changes`` is the number of
            individual rewrites applied (0 means ``new_graph`` is
            semantically the input graph).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class PassStats:
    """Rewrite count for one pass of a sweep."""

    name: str
    changes: int = 0


@dataclass
class RewriteResult:
    """Outcome of :func:`repro.rewrite.manager.apply_passes`."""

    graph: Graph
    stats: List[PassStats] = field(default_factory=list)

    @property
    def total_changes(self) -> int:
        """Sum of rewrites over every pass."""
        return sum(s.changes for s in self.stats)

    @property
    def changed(self) -> bool:
        """Whether any pass rewrote anything."""
        return self.total_changes > 0

    def report(self) -> str:
        """Per-pass one-line summary of the sweep."""
        lines = [f"rewrite: {self.total_changes} change(s)"]
        for s in self.stats:
            lines.append(f"  {s.name:<16} {s.changes}")
        return "\n".join(lines)
