"""The concrete rewrite pass.

A pass preserves training semantics *bit-for-bit* under the lossless
policies — that is the contract the rewrite-equivalence oracle
(:mod:`repro.rewrite.equivalence`) fuzzes.  The pass's docstring states
the argument for why its transform is exact; the restrictions the code
enforces are exactly the preconditions of that argument, so do not
loosen one without extending the other.
"""

from __future__ import annotations

from typing import Tuple

from repro.graph.graph import Graph
from repro.rewrite.base import RewritePass, clone_node, rebuild


class InplacePass(RewritePass):
    """Mark immediately-consumed maps as inplace (paper §III-C).

    Eligible consumers get ``OpNode.inplace`` set; the plan's own
    ``GistConfig.inplace`` merge prices the same pairs, and no executor
    runs the flag, so a marked graph trains exactly like the unmarked
    one.

    Eligibility is recomputed from scratch each run via
    :func:`~repro.encodings.inplace.inplace_eligible_edges` — the same
    analysis the planner prices — and stale marks are cleared, so the
    pass is idempotent.
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
