"""Shared-concat-buffer chains ("Memory-Efficient DenseNets", PAPERS.md).

In a dense block, every stage concatenates its fresh feature map onto
the running block state, so the intermediate concat outputs are nested
channel prefixes of the block's final concat.  When every link in the
chain passes the previous concat as its **first** input, the executor
runs the whole chain in one terminal-sized buffer: each link's output
is the buffer's ``[:, :C]`` prefix and the link writes only its new
channels, so the prefix *is* the member, not a copy of it:

    member_m_output is terminal[:, :C_m]          (one buffer per chain)

The planner exploits this by dropping each member's private stash and
re-reading its value as a prefix view of the terminal's kept buffer at
backward time — the fourth arm next to encode, recompute and swap.

This module discovers the chains, for both: pricing lives in
:mod:`repro.memory.hybrid`, the chain buffers and the runtime read in
:mod:`repro.train.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.graph.graph import Graph


@dataclass(frozen=True)
class ConcatChain:
    """One maximal axis-1 concat chain.

    ``members`` are the non-terminal concat node ids, earliest first;
    each member's output is a bit-exact channel prefix of the terminal's
    output.  ``path(member)`` lists the node ids from that member to the
    terminal inclusive (the structural witness the oracle re-validates).
    """

    terminal_id: int
    members: Tuple[int, ...]

    def path(self, member_id: int) -> Tuple[int, ...]:
        """Node ids from ``member_id`` to the terminal, inclusive."""
        if member_id not in self.members:
            raise KeyError(f"node {member_id} is not a member of this chain")
        start = self.members.index(member_id)
        return self.members[start:] + (self.terminal_id,)


def _chain_links(graph: Graph) -> Dict[int, int]:
    """Map concat node id -> its unique chain successor's node id.

    A link ``a -> b`` exists when ``b`` is a concat whose *first* input
    is concat ``a`` (the prefix-copy condition).  If two concats both
    extend ``a`` the growing buffer could serve only one of them, so
    ambiguous fan-out forfeits the link entirely.
    """
    succ: Dict[int, int] = {}
    ambiguous = set()
    for node in graph.nodes:
        if node.layer.kind != "concat":
            continue
        first = graph.node(node.inputs[0])
        if first.layer.kind != "concat":
            continue
        if first.node_id in succ or first.node_id in ambiguous:
            succ.pop(first.node_id, None)
            ambiguous.add(first.node_id)
            continue
        succ[first.node_id] = node.node_id
    return succ


def find_concat_chains(graph: Graph) -> List[ConcatChain]:
    """All maximal shared-buffer-eligible concat chains in ``graph``.

    Chains are vertex-disjoint paths (each node has at most one
    predecessor link by construction and ambiguous successors are
    dropped), returned in ascending terminal-id order.  Only chains with
    at least one non-terminal member are reported.
    """
    succ = _chain_links(graph)
    has_pred = set(succ.values())
    chains: List[ConcatChain] = []
    for start in sorted(succ):
        if start in has_pred:
            continue  # interior node; the chain is walked from its head
        members = [start]
        cur = start
        while cur in succ:
            cur = succ[cur]
            members.append(cur)
        chains.append(ConcatChain(terminal_id=members[-1],
                                  members=tuple(members[:-1])))
    return sorted(chains, key=lambda c: c.terminal_id)


def member_to_terminal(chains: List[ConcatChain]) -> Dict[int, ConcatChain]:
    """Index the chains by member node id."""
    index: Dict[int, ConcatChain] = {}
    for chain in chains:
        for member in chain.members:
            index[member] = chain
    return index
