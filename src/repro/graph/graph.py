"""The training execution graph (a DAG of operator nodes).

This is the reproduction's stand-in for the CNTK execution graph that
Gist's Schedule Builder consumes: it provides topological ordering,
consumer lookup, shape/parameter introspection and aggregate statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, TypeVar

from repro.graph.node import OpNode
from repro.layers.base import Shape

T = TypeVar("T")


class GraphError(ValueError):
    """Raised for malformed graph construction or queries."""


class Graph:
    """Immutable DAG of :class:`~repro.graph.node.OpNode`.

    Build instances through :class:`~repro.graph.builder.GraphBuilder`.
    Because nothing about a graph changes after construction, every fact
    derived from it alone (liveness table, stash classes, step timing,
    ...) is computed once per graph through :meth:`derived`.
    """

    def __init__(self, name: str, nodes: Dict[int, OpNode], input_id: int, output_id: int):
        self.name = name
        self._nodes = dict(nodes)
        self.input_id = input_id
        self.output_id = output_id
        self._consumers: Dict[int, List[int]] = {nid: [] for nid in self._nodes}
        for node in self._nodes.values():
            for src in node.inputs:
                if src not in self._nodes:
                    raise GraphError(
                        f"node {node.name!r} references unknown input id {src}"
                    )
                self._consumers[src].append(node.node_id)
        self._topo = self._topological_order()
        self._facts: Dict[Hashable, object] = {}

    def __getstate__(self) -> dict:
        # The memo is a cache, not state: a copy or a pickle starts cold.
        state = dict(self.__dict__)
        state["_facts"] = {}
        return state

    def derived(self, key: Hashable, derive: Callable[[], T]) -> T:
        """The fact ``derive()`` computes from this graph, derived on the
        first ask under ``key`` and remembered for the graph's lifetime.

        Exact because the graph is immutable: ``key`` must name the
        derivation and every input it reads besides the graph.  What is
        stored is shared by every later caller, so the module that owns a
        derivation hands it out immutable or copies it at its boundary.
        """
        facts = self._facts
        if key not in facts:
            facts[key] = derive()
        return facts[key]

    # ------------------------------------------------------------------
    def node(self, node_id: int) -> OpNode:
        """Node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"no node with id {node_id}") from None

    def node_by_name(self, name: str) -> OpNode:
        """Node by unique name."""
        for node in self._nodes.values():
            if node.name == name:
                return node
        raise GraphError(f"no node named {name!r}")

    @property
    def nodes(self) -> List[OpNode]:
        """All nodes in topological order."""
        return [self._nodes[i] for i in self._topo]

    def consumers(self, node_id: int) -> List[OpNode]:
        """Nodes that read ``node_id``'s output in the forward pass."""
        return [self._nodes[i] for i in self._consumers[node_id]]

    def topological_ids(self) -> List[int]:
        """Node ids in a deterministic topological order."""
        return list(self._topo)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterable[OpNode]:
        return iter(self.nodes)

    # ------------------------------------------------------------------
    def _topological_order(self) -> List[int]:
        indegree = {nid: len(n.inputs) for nid, n in self._nodes.items()}
        # Deterministic Kahn's algorithm: ready set ordered by node id.
        ready = sorted(nid for nid, d in indegree.items() if d == 0)
        order: List[int] = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for consumer in self._consumers[nid]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    # Insert keeping the ready list sorted (graphs are small).
                    ready.append(consumer)
                    ready.sort()
        if len(order) != len(self._nodes):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def param_shapes(self) -> Dict[str, Shape]:
        """All learnable parameter shapes, keyed ``"<node>.<param>"``."""
        shapes: Dict[str, Shape] = {}
        for node in self.nodes:
            for pname, pshape in node.layer.param_shapes(
                node.input_shapes(self)
            ).items():
                shapes[f"{node.name}.{pname}"] = pshape
        return shapes

    def num_parameters(self) -> int:
        """Total learnable parameter count."""
        total = 0
        for shape in self.param_shapes().values():
            n = 1
            for d in shape:
                n *= d
            total += n
        return total

    def total_forward_flops(self) -> int:
        """Sum of forward FLOPs over all ops."""
        total = 0
        for node in self.nodes:
            total += node.layer.flops(node.input_shapes(self), node.output_shape)
        return total

    def summary(self) -> str:
        """Multi-line human-readable description of the graph."""
        lines = [f"Graph {self.name!r}: {len(self)} ops, "
                 f"{self.num_parameters():,} params"]
        for node in self.nodes:
            srcs = ",".join(self._nodes[i].name for i in node.inputs)
            dims = "x".join(str(d) for d in node.output_shape)
            lines.append(f"  {node.name:<24} {node.kind:<10} [{dims}] <- {srcs}")
        return "\n".join(lines)
